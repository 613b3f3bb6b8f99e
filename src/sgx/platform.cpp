#include "sgx/platform.h"

#include "crypto/hmac.h"
#include "sgx/taint.h"
#include "telemetry/events.h"
#include "telemetry/trace.h"

namespace tenet::sgx {

namespace {

/// The quoting enclave's "source" — fixed text so every platform measures
/// the same well-known QE identity (§2.2: "a specially provisioned
/// enclave, whose identity is well-known").
constexpr std::string_view kQuotingEnclaveSource =
    "tenet quoting enclave v1\n"
    "entry quote(report):\n"
    "  key = EGETKEY(REPORT_KEY)\n"
    "  require report.target == self.measurement\n"
    "  require mac_verify(key, report)\n"
    "  return epid_sign(platform_key, QUOTE(report))\n";

constexpr uint32_t kQuoteFn = 1;

/// Trusted quoting-enclave logic. Holds no state; the platform attestation
/// key is reachable only through the Platform reference (modelling the
/// hardware restriction that only the QE may use the attestation key).
class QuotingApp final : public EnclaveApp {
 public:
  explicit QuotingApp(Platform& platform) : platform_(platform) {}

  crypto::Bytes handle_call(uint32_t fn, crypto::BytesView arg,
                            EnclaveEnv& env) override {
    if (fn != kQuoteFn) return {};
    Report report;
    try {
      report = Report::deserialize(arg);
    } catch (const std::exception&) {
      return {};
    }
    // Intra-attestation (§2.2): the report must target this QE, and its
    // MAC must verify under our report key obtained via EGETKEY.
    if (report.target != env.self_measurement()) return {};
    const crypto::Bytes rk = env.report_key();
    if (!report.verify(rk)) return {};
    if (report.platform != platform_.id()) return {};

    Quote q;
    q.report = report;
    q.platform = platform_.id();
    crypto::Bytes pid;
    crypto::append_u64(pid, platform_.id());
    q.signature = platform_.authority().group_signer().sign_as_member(
        pid, q.signed_body());
    return q.serialize();
  }

 private:
  Platform& platform_;
};

}  // namespace

Authority::Authority(uint64_t seed)
    : rng_(crypto::Drbg::from_label(seed, "tenet.authority")),
      epid_(crypto::DhGroup::oakley_group2(), rng_) {}

const crypto::SchnorrPublicKey& Authority::group_public_key() const {
  return epid_.group_public_key();
}

PlatformId Authority::enroll(const std::string& platform_name) {
  auto [it, inserted] = platforms_.emplace(platform_name, next_id_);
  if (!inserted) {
    throw std::invalid_argument("Authority: duplicate platform name " +
                                platform_name);
  }
  return next_id_++;
}

void Authority::revoke(PlatformId platform) { revoked_[platform] = true; }

bool Authority::is_revoked(PlatformId platform) const {
  const auto it = revoked_.find(platform);
  return it != revoked_.end() && it->second;
}

bool Authority::verify_quote(const Quote& q) const {
  if (is_revoked(q.platform)) return false;
  if (q.report.platform != q.platform) return false;
  crypto::Bytes pid;
  crypto::append_u64(pid, q.platform);
  return epid_.verify_member(pid, q.signed_body(), q.signature);
}

Platform::Platform(Authority& authority, std::string name)
    : authority_(authority),
      name_(std::move(name)),
      id_(authority.enroll(name_)),
      root_secret_(crypto::hkdf(crypto::to_bytes("tenet.platform.fuse"),
                                crypto::to_bytes(name_), crypto::to_bytes("root"),
                                32)),
      epc_(crypto::hkdf(crypto::to_bytes("tenet.platform.mee"), root_secret_,
                        crypto::to_bytes("mee"), 32)) {}

Enclave& Platform::launch(const SigStruct& sigstruct,
                          const EnclaveImage& image) {
  const EnclaveId id = next_enclave_id_++;
  auto enclave = std::make_unique<Enclave>(*this, id, sigstruct, image);
  auto [it, _] = enclaves_.emplace(id, std::move(enclave));
  launch_records_.emplace(id, LaunchRecord{sigstruct, image});
  return *it->second;
}

Enclave& Platform::restart_enclave(EnclaveId id) {
  const auto rec = launch_records_.find(id);
  if (rec == launch_records_.end()) {
    throw HardwareFault("restart_enclave: unknown enclave id");
  }
  TENET_SPAN("sgx", "restart_enclave");
  TENET_COUNT("sgx.enclave_restarts");
  TENET_EVENT(kEnclaveRestart, static_cast<uint32_t>(id));
  const LaunchRecord record = rec->second;  // copy: erase invalidates rec
  const auto it = enclaves_.find(id);
  if (it != enclaves_.end()) {
    if (it->second->alive()) it->second->destroy();  // EREMOVE all pages
    if (qe_ == it->second.get()) qe_ = nullptr;
    retired_cost_.add(it->second->cost().snapshot());
    enclaves_.erase(it);
  }
  launch_records_.erase(id);
  return launch(record.sigstruct, record.image);
}

Enclave& Platform::launch(const Vendor& vendor, const EnclaveImage& image,
                          uint32_t product_id) {
  // Signing at launch is provisioning, not steady-state work.
  crypto::work::Scope setup_scope(nullptr);
  return launch(vendor.sign(image, product_id), image);
}

Measurement Platform::quoting_enclave_measurement() {
  static const Measurement m =
      EnclaveImage::from_source("quoting-enclave", kQuotingEnclaveSource, nullptr)
          .measure();
  return m;
}

Enclave& Platform::quoting_enclave() {
  if (qe_ == nullptr) {
    // QE provisioning (vendor keygen + image signing) is platform setup,
    // not steady-state work — keep it off the caller's work meter.
    crypto::work::Scope setup_scope(nullptr);
    // The QE is provisioned by the platform vendor ("Intel").
    static const Vendor kIntel("intel-attestation");
    Platform* self = this;
    const EnclaveImage image = EnclaveImage::from_source(
        "quoting-enclave", kQuotingEnclaveSource,
        [self] { return std::make_unique<QuotingApp>(*self); });
    qe_ = &launch(kIntel, image, /*product_id=*/0x5158);
  }
  return *qe_;
}

crypto::Bytes Platform::derive_report_key(const Measurement& target) const {
  crypto::Bytes info;
  crypto::append(info, crypto::to_bytes("report-key"));
  crypto::append(info, crypto::BytesView(target.data(), target.size()));
  crypto::Bytes key =
      crypto::hkdf(crypto::to_bytes("tenet.egetkey"), root_secret_, info, 32);
  taint::note_key("sgx.report_key", key);
  return key;
}

crypto::Bytes Platform::derive_seal_key(const Measurement& mr_enclave,
                                        crypto::BytesView label) const {
  crypto::Bytes info;
  crypto::append(info, crypto::to_bytes("seal-key"));
  crypto::append(info, crypto::BytesView(mr_enclave.data(), mr_enclave.size()));
  crypto::append_lv(info, label);
  crypto::Bytes key =
      crypto::hkdf(crypto::to_bytes("tenet.egetkey"), root_secret_, info, 32);
  taint::note_key("sgx.seal_key", key);
  return key;
}

std::optional<Quote> Platform::quote_via_qe(const Report& report) {
  TENET_SPAN("sgx", "quote_via_qe");
  TENET_COUNT("attest.quotes");
  Enclave& qe = quoting_enclave();
  const crypto::Bytes result = qe.ecall(kQuoteFn, report.serialize());
  if (result.empty()) return std::nullopt;
  try {
    return Quote::deserialize(result);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

CostModel::Snapshot Platform::total_snapshot() const {
  CostModel::Snapshot total = host_cost_.snapshot();
  total.add(retired_cost_);
  for (const auto& [id, enclave] : enclaves_) {
    total.add(enclave->cost().snapshot());
  }
  return total;
}

std::vector<Enclave*> Platform::enclaves() {
  std::vector<Enclave*> out;
  out.reserve(enclaves_.size());
  for (auto& [id, enclave] : enclaves_) out.push_back(enclave.get());
  return out;
}

}  // namespace tenet::sgx
