#include "sgx/epc.h"

#include <algorithm>
#include <functional>
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

/// A spilled page is sealed on a channel of its own, so its ciphertext
/// never shares a keystream with the resident page's.
constexpr uint64_t kSpillChannel = 0x5350494C;  // "SPIL"

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
}  // namespace

Epc::Epc(crypto::BytesView mee_key, size_t capacity_pages)
    : mee_([&] {
        MeeScope off;
        return crypto::Aead(mee_key);
      }()),
      capacity_(capacity_pages) {}

void Epc::push_victim(const PageKey& key, Page& page) {
  if (!paging_ || page.in_heap) return;
  page.in_heap = true;
  victims_.push_back(key);
  std::push_heap(victims_.begin(), victims_.end(), std::greater<PageKey>());
}

void Epc::rebuild_victims() {
  victims_.clear();
  table_.for_each([this](const PageKey& key, Page& page) {
    page.in_heap = page.resident;
    if (page.in_heap) victims_.push_back(key);
  });
  std::make_heap(victims_.begin(), victims_.end(), std::greater<PageKey>());
}

void Epc::make_room(EnclaveId requester) {
  // The "OS" picks an eviction victim: the lowest resident (owner, vaddr).
  // A key whose page was evicted since it was pushed is dropped on the
  // way. The victim's key is popped only once its EWB has succeeded, so a
  // victim that faults stays first in line.
  const auto later = std::greater<PageKey>();
  if (!paging_) {
    paging_ = true;
    rebuild_victims();
  }
  while (!victims_.empty()) {
    const PageKey key = victims_.front();
    Page* page = table_.find(key);
    const bool victim = page->resident;
    if (victim) evict_page(key.first, key.second);
    page->in_heap = false;
    std::pop_heap(victims_.begin(), victims_.end(), later);
    victims_.pop_back();
    if (victim) return;
  }
  TENET_COUNT("sgx.epc.pressure_faults");
  TENET_EVENT(kEpcPressure, static_cast<uint32_t>(requester), capacity_);
  throw EpcPressureError(
      requester, "EPC: no evictable page (capacity too small) while enclave " +
                     std::to_string(requester) + " requested a page");
}

void Epc::add_page(EnclaveId owner, uint64_t vaddr,
                   crypto::BytesView plaintext) {
  MeeScope off;
  if (plaintext.size() > kPageSize) {
    throw HardwareFault("EPC: page larger than 4096 bytes");
  }
  const PageKey key{owner, vaddr};
  if (table_.find(key) != nullptr) {
    throw HardwareFault("EPC: page already mapped");
  }
  if (resident_ >= capacity_) make_room(owner);

  Page& page = table_.insert(key).value;
  store(page, crypto::Bytes(plaintext.begin(), plaintext.end()),
        next_version_++);
  page.resident = true;
  ++resident_;
  push_victim(key, page);
  TENET_COUNT("sgx.epc.pages_added");
  TENET_COUNT("sgx.epc.mee_seals");
}

void Epc::store(Page& page, crypto::Bytes plain, uint64_t version) {
  page.version = version;
  if (all_zero(plain)) {
    page.state = PageState::kZero;
    page.bytes = crypto::Bytes();  // release the page
  } else {
    plain.resize(kPageSize, 0);
    page.state = PageState::kPlain;
    page.bytes = std::move(plain);
  }
}

std::optional<crypto::Bytes> Epc::open_page(uint64_t vaddr,
                                            const Page& page) const {
  switch (page.state) {
    case PageState::kZero:
      return zero_page_bytes();
    case PageState::kPlain:
      return page.bytes;
    case PageState::kSealed:
      break;
  }
  auto plain = mee_.open(page.bytes, vaddr_aad(vaddr));
  if (!plain.has_value() ||
      crypto::Aead::record_seq(page.bytes) != page.version) {
    return std::nullopt;
  }
  return plain;
}

void Epc::materialize(const PageKey& key, const Page& page) const {
  if (page.state == PageState::kSealed) return;
  MeeScope off;
  page.bytes = mee_.seal(
      page.resident ? key.first : key.first ^ kSpillChannel,
      page.resident ? page.version : page.spill_version,
      page.state == PageState::kZero ? zero_page_bytes() : page.bytes,
      vaddr_aad(key.second));
  page.state = PageState::kSealed;
}

void Epc::evict_page(EnclaveId owner, uint64_t vaddr) {
  MeeScope off;
  TENET_SPAN("epc", "ewb");
  Page* page = table_.find({owner, vaddr});
  if (page == nullptr || !page->resident) {
    throw HardwareFault("EWB: page not resident");
  }

  // Spill the page under a fresh version recorded in the (trusted) VA
  // slot. Its plaintext (or zero marker) moves to the spill as it is; the
  // seal is deferred until the spill can be observed. A page that is
  // sealed resident is opened and checked first. Counted as an open and a
  // seal in every case, as eager sealing would do.
  const uint64_t version = next_version_++;
  TENET_COUNT("sgx.epc.mee_opens");
  if (page->state == PageState::kSealed) {
    std::optional<crypto::Bytes> opened = open_page(vaddr, *page);
    if (!opened.has_value()) {
      throw HardwareFault("EPC: MEE integrity check failed (page corrupted)");
    }
    page->bytes = std::move(*opened);
    page->state = PageState::kPlain;
  }
  TENET_COUNT("sgx.epc.mee_seals");
  page->version = version;
  page->spill_version = version;
  page->resident = false;
  --resident_;
  if (!suspect_.empty()) suspect_.erase({owner, vaddr});  // opened clean above
  ++evictions_;
  TENET_COUNT("sgx.epc.ewb");
}

void Epc::reload_page(const PageKey& key, Page& page) {
  MeeScope off;
  TENET_SPAN("epc", "eldu");
  if (page.spill_version != page.version) {
    TENET_COUNT("sgx.epc.rollbacks_detected");
    throw HardwareFault("ELDU: version mismatch (rollback attack detected)");
  }
  // A spill no one observed holds the plaintext EWB moved there, so the
  // VA-slot comparison above is the full rollback check. A sealed one is
  // opened and its MAC and sealed version checked (the record's version
  // field lives in untrusted RAM; the MAC covers the version via the AEAD
  // sequence number, so a liar is caught here).
  TENET_COUNT("sgx.epc.mee_opens");
  std::optional<crypto::Bytes> plain;
  if (page.state == PageState::kSealed) {
    plain = mee_.open(page.bytes, vaddr_aad(key.second));
    if (!plain.has_value()) {
      TENET_COUNT("sgx.epc.integrity_faults");
      throw HardwareFault("ELDU: MAC failure on spilled page");
    }
    if (crypto::Aead::record_seq(page.bytes) != page.version) {
      TENET_COUNT("sgx.epc.rollbacks_detected");
      throw HardwareFault("ELDU: version mismatch (rollback attack detected)");
    }
  }
  const uint64_t version = next_version_++;
  TENET_COUNT("sgx.epc.mee_seals");

  // Make room before touching the spill: if no victim can be evicted, the
  // page stays spilled as it was instead of being lost.
  if (resident_ >= capacity_) make_room(key.first);
  if (plain.has_value()) {
    store(page, std::move(*plain), version);
  } else {
    page.version = version;
  }
  page.resident = true;
  ++resident_;
  push_victim(key, page);
  ++reloads_;
  TENET_COUNT("sgx.epc.eldu");
}

Epc::Page* Epc::find_page(EnclaveId owner, uint64_t vaddr) {
  const PageKey key{owner, vaddr};
  Page* page = table_.find(key);
  if (page != nullptr && !page->resident) reload_page(key, *page);  // page-in
  return page;
}

crypto::Bytes Epc::read_page(EnclaveId owner, uint64_t vaddr) {
  MeeScope off;
  const Page* page = find_page(owner, vaddr);
  if (page == nullptr) throw HardwareFault("EPC: access to unmapped page");
  auto plain = open_page(vaddr, *page);
  if (!plain.has_value()) {
    throw HardwareFault("EPC: MEE integrity check failed (page corrupted)");
  }
  return std::move(*plain);
}

void Epc::write_page(EnclaveId owner, uint64_t vaddr,
                     crypto::BytesView plaintext) {
  MeeScope off;
  Page* page = find_page(owner, vaddr);
  if (page == nullptr) throw HardwareFault("EPC: write to unmapped page");
  if (plaintext.size() > kPageSize) {
    throw HardwareFault("EPC: oversized write");
  }
  store(*page, crypto::Bytes(plaintext.begin(), plaintext.end()),
        next_version_++);
  if (!suspect_.empty()) suspect_.erase({owner, vaddr});  // overwritten
}

void Epc::verify_owner_pages(EnclaveId owner) {
  MeeScope off;
  // Every resident page outside suspect_ holds plaintext the MEE stored or
  // ciphertext it sealed (add/write/reload/materialize), so it cannot fail
  // the MAC or the version check; only the pages the adversary wrote need
  // opening. Spilled pages are verified at reload; verifying them here
  // would defeat the point of paging them out.
  auto it = suspect_.lower_bound({owner, 0});
  while (it != suspect_.end() && it->first == owner) {
    if (!open_page(it->second, *table_.find(*it)).has_value()) {
      // The entry stays: the enclave faults again on every later entry.
      TENET_COUNT("sgx.epc.integrity_faults");
      throw HardwareFault("EPC: MEE integrity check failed (page corrupted)");
    }
    it = suspect_.erase(it);
  }
}

void Epc::remove_enclave(EnclaveId owner) {
  size_t removed = 0;
  table_.retain([&](const PageKey& key, const Page& page) {
    if (key.first != owner) return true;
    resident_ -= page.resident ? 1 : 0;
    ++removed;
    return false;
  });
  if (removed == 0) return;
  if (paging_) rebuild_victims();
  suspect_.erase(
      suspect_.lower_bound({owner, 0}),
      suspect_.upper_bound({owner, std::numeric_limits<uint64_t>::max()}));
}

size_t Epc::pages_of(EnclaveId owner) const {
  size_t n = 0;
  table_.for_each([&](const PageKey& key, const Page&) {
    n += key.first == owner ? 1 : 0;
  });
  return n;
}

bool Epc::resident(EnclaveId owner, uint64_t vaddr) const {
  const Page* page = table_.find({owner, vaddr});
  return page != nullptr && page->resident;
}

std::optional<crypto::Bytes> Epc::adversary_read_ciphertext(
    EnclaveId owner, uint64_t vaddr) const {
  const PageKey key{owner, vaddr};
  const Page* page = table_.find(key);
  if (page == nullptr) return std::nullopt;
  materialize(key, *page);
  return page->bytes;
}

bool Epc::adversary_corrupt(EnclaveId owner, uint64_t vaddr,
                            size_t byte_offset) {
  const PageKey key{owner, vaddr};
  Page* page = table_.find(key);
  if (page == nullptr) return false;
  materialize(key, *page);
  flip_bit(page->bytes, byte_offset);
  if (page->resident) suspect_.insert(key);
  return true;
}

bool Epc::adversary_replace_resident(EnclaveId owner, uint64_t vaddr,
                                     crypto::Bytes old_ciphertext) {
  Page* page = table_.find({owner, vaddr});
  if (page == nullptr || !page->resident) return false;
  page->bytes = std::move(old_ciphertext);
  page->state = PageState::kSealed;
  suspect_.insert({owner, vaddr});
  return true;
}

std::optional<crypto::Bytes> Epc::adversary_snapshot_spill(
    EnclaveId owner, uint64_t vaddr) const {
  const PageKey key{owner, vaddr};
  const Page* page = table_.find(key);
  if (page == nullptr || page->resident) return std::nullopt;
  materialize(key, *page);
  crypto::Bytes snapshot;
  crypto::append_u64(snapshot, page->spill_version);
  crypto::append(snapshot, page->bytes);
  return snapshot;
}

bool Epc::adversary_replace_spill(EnclaveId owner, uint64_t vaddr,
                                  crypto::Bytes old_snapshot) {
  Page* page = table_.find({owner, vaddr});
  if (page == nullptr || page->resident || old_snapshot.size() < 8) {
    return false;
  }
  page->spill_version = crypto::read_u64(old_snapshot, 0);
  page->bytes.assign(old_snapshot.begin() + 8, old_snapshot.end());
  page->state = PageState::kSealed;
  return true;
}

}  // namespace tenet::sgx
