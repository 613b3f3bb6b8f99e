#include "sgx/epc.h"

#include <iterator>
#include <limits>
#include <string>

#include "crypto/work.h"
#include "telemetry/events.h"
#include "telemetry/trace.h"

namespace tenet::sgx {

namespace {
/// MEE operations happen in dedicated hardware; keep them out of the
/// instruction-cost work meter for the duration of the call.
struct MeeScope : crypto::work::Scope {
  MeeScope() : crypto::work::Scope(nullptr) {}
};

crypto::Bytes vaddr_aad(uint64_t vaddr) {
  crypto::Bytes aad;
  crypto::append_u64(aad, vaddr);
  return aad;
}

bool all_zero(crypto::BytesView bytes) {
  for (const uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

crypto::Bytes zero_page_bytes() { return crypto::Bytes(kPageSize, 0); }

/// The adversary's bit flip; a no-op on an empty ciphertext, which a
/// replace can leave behind.
void flip_bit(crypto::Bytes& ciphertext, size_t byte_offset) {
  if (!ciphertext.empty()) ciphertext[byte_offset % ciphertext.size()] ^= 0x80;
}

/// The [first, last) range of `owner`'s entries in a map or set keyed
/// (owner, vaddr).
template <typename Keyed>
auto owner_range(Keyed& keyed, EnclaveId owner) {
  return std::pair{
      keyed.lower_bound({owner, 0}),
      keyed.upper_bound({owner, std::numeric_limits<uint64_t>::max()})};
}

template <typename Keyed>
void erase_owner(Keyed& keyed, EnclaveId owner) {
  const auto [first, last] = owner_range(keyed, owner);
  keyed.erase(first, last);
}

template <typename Keyed>
size_t count_owner(const Keyed& keyed, EnclaveId owner) {
  const auto [first, last] = owner_range(keyed, owner);
  return static_cast<size_t>(std::distance(first, last));
}
}  // namespace

Epc::Epc(crypto::BytesView mee_key, size_t capacity_pages)
    : mee_([&] {
        MeeScope off;
        return crypto::Aead(mee_key);
      }()),
      capacity_(capacity_pages) {}

void Epc::make_room(EnclaveId keep_owner, uint64_t keep_vaddr) {
  // The "OS" picks an eviction victim. Any resident page other than the
  // one being installed will do; take the first.
  for (const auto& [key, slot] : pages_) {
    if (key.first == keep_owner && key.second == keep_vaddr) continue;
    evict_page(key.first, key.second);
    return;
  }
  TENET_COUNT("sgx.epc.pressure_faults");
  TENET_EVENT(kEpcPressure, static_cast<uint32_t>(keep_owner), capacity_);
  throw EpcPressureError(
      keep_owner, "EPC: no evictable page (capacity too small) while enclave " +
                      std::to_string(keep_owner) + " requested a page");
}

void Epc::add_page(EnclaveId owner, uint64_t vaddr,
                   crypto::BytesView plaintext) {
  MeeScope off;
  if (plaintext.size() > kPageSize) {
    throw HardwareFault("EPC: page larger than 4096 bytes");
  }
  const auto key = std::make_pair(owner, vaddr);
  if (pages_.contains(key) || spill_.contains(key)) {
    throw HardwareFault("EPC: page already mapped");
  }
  if (pages_.size() >= capacity_) make_room(owner, vaddr);

  Slot slot;
  slot.epcm = EpcmEntry{true, owner, vaddr, true};
  store(slot, crypto::Bytes(plaintext.begin(), plaintext.end()));
  pages_.emplace(key, std::move(slot));
  TENET_COUNT("sgx.epc.pages_added");
  TENET_COUNT("sgx.epc.mee_seals");
}

void Epc::store(Slot& slot, crypto::Bytes page) {
  slot.version = next_version_++;
  if (all_zero(page)) {
    slot.state = PageState::kZero;
    slot.bytes = crypto::Bytes();  // release the page
  } else {
    page.resize(kPageSize, 0);
    slot.state = PageState::kPlain;
    slot.bytes = std::move(page);
  }
}

std::optional<crypto::Bytes> Epc::open_page(const Slot& slot,
                                            uint64_t vaddr) const {
  switch (slot.state) {
    case PageState::kZero:
      return zero_page_bytes();
    case PageState::kPlain:
      return slot.bytes;
    case PageState::kSealed:
      break;
  }
  auto plain = mee_.open(slot.bytes, vaddr_aad(vaddr));
  if (!plain.has_value() ||
      crypto::Aead::record_seq(slot.bytes) != slot.version) {
    return std::nullopt;
  }
  return plain;
}

void Epc::materialize(const Slot& slot, EnclaveId owner,
                      uint64_t vaddr) const {
  if (slot.state == PageState::kSealed) return;
  MeeScope off;
  slot.bytes = mee_.seal(
      owner, slot.version,
      slot.state == PageState::kZero ? zero_page_bytes() : slot.bytes,
      vaddr_aad(vaddr));
  slot.state = PageState::kSealed;
}

void Epc::materialize_spill(const SpilledPage& spilled, EnclaveId owner,
                            uint64_t vaddr) const {
  if (!spilled.zero) return;
  MeeScope off;
  spilled.ciphertext = mee_.seal(owner ^ 0x5350494Cu, spilled.version,
                                 zero_page_bytes(), vaddr_aad(vaddr));
  spilled.zero = false;
}

void Epc::evict_page(EnclaveId owner, uint64_t vaddr) {
  MeeScope off;
  TENET_SPAN("epc", "ewb");
  const auto it = pages_.find({owner, vaddr});
  if (it == pages_.end()) throw HardwareFault("EWB: page not resident");

  // Seal the page's plaintext (opening it first only if it is sealed
  // resident) with a fresh version bound into the ciphertext; record the
  // version in the (trusted) VA slot. A zero page spills as a zero marker:
  // the version walk is identical, only the seal is deferred until the
  // spilled ciphertext can be observed. Counted as an open and a seal in
  // every case, as eager sealing would do.
  const uint64_t version = next_version_++;
  SpilledPage spilled;
  spilled.version = version;
  TENET_COUNT("sgx.epc.mee_opens");
  const Slot& slot = it->second;
  if (slot.state == PageState::kZero) {
    spilled.zero = true;
  } else {
    std::optional<crypto::Bytes> opened;
    if (slot.state == PageState::kSealed) {
      opened = open_page(slot, vaddr);
      if (!opened.has_value()) {
        throw HardwareFault("EPC: MEE integrity check failed (page corrupted)");
      }
    }
    spilled.ciphertext =
        mee_.seal(owner ^ 0x5350494Cu, version, opened ? *opened : slot.bytes,
                  vaddr_aad(vaddr));
  }
  TENET_COUNT("sgx.epc.mee_seals");
  version_array_[{owner, vaddr}] = version;
  spill_[{owner, vaddr}] = std::move(spilled);
  pages_.erase(it);
  suspect_.erase({owner, vaddr});  // opened clean above
  ++evictions_;
  TENET_COUNT("sgx.epc.ewb");
}

void Epc::reload_page(EnclaveId owner, uint64_t vaddr) {
  MeeScope off;
  TENET_SPAN("epc", "eldu");
  const auto key = std::make_pair(owner, vaddr);
  const auto it = spill_.find(key);
  if (it == spill_.end()) throw HardwareFault("ELDU: page not spilled");

  const auto va = version_array_.find(key);
  if (va == version_array_.end() || va->second != it->second.version) {
    TENET_COUNT("sgx.epc.rollbacks_detected");
    throw HardwareFault("ELDU: version mismatch (rollback attack detected)");
  }
  Slot slot;
  slot.epcm = EpcmEntry{true, owner, vaddr, true};
  if (it->second.zero) {
    // Deferred zero spill: nothing observable was ever produced, so there
    // is no ciphertext to check — the VA-slot version comparison above is
    // the full rollback check (a replaced snapshot materializes first and
    // takes the non-zero path).
    store(slot, crypto::Bytes());
    TENET_COUNT("sgx.epc.mee_opens");
    TENET_COUNT("sgx.epc.mee_seals");
  } else {
    auto plain = mee_.open(it->second.ciphertext, vaddr_aad(vaddr));
    TENET_COUNT("sgx.epc.mee_opens");
    if (!plain.has_value()) {
      TENET_COUNT("sgx.epc.integrity_faults");
      throw HardwareFault("ELDU: MAC failure on spilled page");
    }
    // Verify the sealed version actually matches the VA slot (the stored
    // `version` field above lives in untrusted RAM; the MAC covers the
    // version via the AEAD sequence number, so a liar is caught here).
    if (crypto::Aead::record_seq(it->second.ciphertext) != va->second) {
      TENET_COUNT("sgx.epc.rollbacks_detected");
      throw HardwareFault("ELDU: version mismatch (rollback attack detected)");
    }
    store(slot, std::move(*plain));
    TENET_COUNT("sgx.epc.mee_seals");
  }

  // Make room before dropping the spilled copy: if no victim can be
  // evicted, the page stays spilled instead of being lost.
  if (pages_.size() >= capacity_) make_room(owner, vaddr);
  spill_.erase(it);
  version_array_.erase(va);
  pages_.emplace(key, std::move(slot));
  ++reloads_;
  TENET_COUNT("sgx.epc.eldu");
}

Epc::Slot* Epc::find_page(EnclaveId owner, uint64_t vaddr) {
  const auto it = pages_.find({owner, vaddr});
  if (it != pages_.end()) return &it->second;
  if (!spill_.contains({owner, vaddr})) return nullptr;
  reload_page(owner, vaddr);  // transparent page-in
  return &pages_.at({owner, vaddr});
}

crypto::Bytes Epc::read_page(EnclaveId owner, uint64_t vaddr) {
  MeeScope off;
  const Slot* slot = find_page(owner, vaddr);
  if (slot == nullptr || !slot->epcm.valid) {
    throw HardwareFault("EPC: access to unmapped page");
  }
  if (slot->epcm.owner != owner) {
    throw HardwareFault("EPC: cross-enclave access denied");
  }
  auto plain = open_page(*slot, vaddr);
  if (!plain.has_value()) {
    throw HardwareFault("EPC: MEE integrity check failed (page corrupted)");
  }
  return std::move(*plain);
}

void Epc::write_page(EnclaveId owner, uint64_t vaddr,
                     crypto::BytesView plaintext) {
  MeeScope off;
  Slot* slot = find_page(owner, vaddr);
  if (slot == nullptr) throw HardwareFault("EPC: write to unmapped page");
  if (!slot->epcm.writable) throw HardwareFault("EPC: page not writable");
  if (plaintext.size() > kPageSize) {
    throw HardwareFault("EPC: oversized write");
  }
  store(*slot, crypto::Bytes(plaintext.begin(), plaintext.end()));
  suspect_.erase({owner, vaddr});  // overwritten
}

void Epc::verify_owner_pages(EnclaveId owner) {
  MeeScope off;
  // Every resident page outside suspect_ holds plaintext the MEE stored or
  // ciphertext it sealed (add/write/reload/materialize), so it cannot fail
  // the MAC or the version check; only the pages the adversary wrote need
  // opening. Spilled pages are verified at reload; verifying them here
  // would defeat the point of paging them out.
  auto [it, last] = owner_range(suspect_, owner);
  while (it != last) {
    if (!open_page(pages_.at(*it), it->second).has_value()) {
      // The entry stays: the enclave faults again on every later entry.
      TENET_COUNT("sgx.epc.integrity_faults");
      throw HardwareFault("EPC: MEE integrity check failed (page corrupted)");
    }
    it = suspect_.erase(it);
  }
}

void Epc::remove_enclave(EnclaveId owner) {
  erase_owner(pages_, owner);
  erase_owner(spill_, owner);
  erase_owner(version_array_, owner);
  erase_owner(suspect_, owner);
}

size_t Epc::pages_of(EnclaveId owner) const {
  return count_owner(pages_, owner) + count_owner(spill_, owner);
}

bool Epc::resident(EnclaveId owner, uint64_t vaddr) const {
  return pages_.contains({owner, vaddr});
}

std::optional<crypto::Bytes> Epc::adversary_read_ciphertext(
    EnclaveId owner, uint64_t vaddr) const {
  const auto it = pages_.find({owner, vaddr});
  if (it != pages_.end()) {
    materialize(it->second, owner, vaddr);
    return it->second.bytes;
  }
  const auto sp = spill_.find({owner, vaddr});
  if (sp != spill_.end()) {
    materialize_spill(sp->second, owner, vaddr);
    return sp->second.ciphertext;
  }
  return std::nullopt;
}

bool Epc::adversary_corrupt(EnclaveId owner, uint64_t vaddr,
                            size_t byte_offset) {
  const auto it = pages_.find({owner, vaddr});
  if (it != pages_.end()) {
    materialize(it->second, owner, vaddr);
    flip_bit(it->second.bytes, byte_offset);
    suspect_.insert(it->first);
    return true;
  }
  const auto sp = spill_.find({owner, vaddr});
  if (sp != spill_.end()) {
    materialize_spill(sp->second, owner, vaddr);
    flip_bit(sp->second.ciphertext, byte_offset);
    return true;
  }
  return false;
}

bool Epc::adversary_replace_resident(EnclaveId owner, uint64_t vaddr,
                                     crypto::Bytes old_ciphertext) {
  const auto it = pages_.find({owner, vaddr});
  if (it == pages_.end()) return false;
  it->second.bytes = std::move(old_ciphertext);
  it->second.state = PageState::kSealed;
  suspect_.insert(it->first);
  return true;
}

std::optional<crypto::Bytes> Epc::adversary_snapshot_spill(
    EnclaveId owner, uint64_t vaddr) const {
  const auto it = spill_.find({owner, vaddr});
  if (it == spill_.end()) return std::nullopt;
  materialize_spill(it->second, owner, vaddr);
  crypto::Bytes snapshot;
  crypto::append_u64(snapshot, it->second.version);
  crypto::append(snapshot, it->second.ciphertext);
  return snapshot;
}

bool Epc::adversary_replace_spill(EnclaveId owner, uint64_t vaddr,
                                  crypto::Bytes old_snapshot) {
  const auto it = spill_.find({owner, vaddr});
  if (it == spill_.end() || old_snapshot.size() < 8) return false;
  it->second.version = crypto::read_u64(old_snapshot, 0);
  it->second.ciphertext.assign(old_snapshot.begin() + 8, old_snapshot.end());
  it->second.zero = false;
  return true;
}

}  // namespace tenet::sgx
