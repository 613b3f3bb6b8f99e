#include "core/node.h"

namespace tenet::core {

EnclaveNode::EnclaveNode(netsim::Simulator& sim, sgx::Authority& authority,
                         std::string name, const sgx::Vendor& vendor,
                         const sgx::EnclaveImage& image)
    : netsim::Node(sim, name),
      platform_(std::make_unique<sgx::Platform>(authority, name)),
      sigstruct_(vendor.sign(image, /*product_id=*/1)),
      image_(image) {
  enclave_ = &platform_->launch(sigstruct_, image_);
  install_ocall_handler();
}

void EnclaveNode::install_ocall_handler() {
  enclave_->set_ocall_handler(
      [this](uint32_t code, crypto::BytesView payload) -> crypto::Bytes {
        switch (code) {
          case kOcallSend: {
            crypto::Reader r(payload);
            const netsim::NodeId dst = r.u32();
            const uint32_t port = r.u32();
            send(dst, port, r.lv());
            return {};
          }
          case kOcallLog:
            return {};  // sink; hosts may override by subclassing
          case kOcallScheduleTimer: {
            crypto::Reader r(payload);
            const uint64_t delay_us = r.u64();
            const uint64_t token = r.u64();
            const netsim::TimerId timer = sim().schedule_timer(
                static_cast<double>(delay_us) * 1e-6, id(), [this, token] {
                  if (dead_) return;
                  crypto::Bytes arg;
                  crypto::append_u64(arg, token);
                  try {
                    (void)enclave_->ecall(kFnTimer, arg);
                  } catch (const sgx::HardwareFault&) {
                    dead_ = true;
                  }
                });
            crypto::Bytes out;
            crypto::append_u64(out, timer);
            return out;
          }
          case kOcallCancelTimer:
            (void)sim().cancel_timer(crypto::read_u64(payload, 0));
            return {};
          default:
            return {};
        }
      });
}

void EnclaveNode::disconnect_from(netsim::NodeId peer) {
  crypto::Bytes arg;
  crypto::append_u32(arg, peer);
  (void)enclave_->ecall(kFnDisconnect, arg);
}

void EnclaveNode::enable_switchless(const sgx::SwitchlessConfig& config) {
  switchless_ = true;
  switchless_config_ = config;
  enclave_->enable_switchless(config);
}

void EnclaveNode::relaunch() {
  enclave_ = &platform_->restart_enclave(enclave_->id());
  install_ocall_handler();
  if (switchless_) enclave_->enable_switchless(switchless_config_);
  dead_ = false;
  start();
}

crypto::Bytes EnclaveNode::checkpoint() {
  last_checkpoint_ = enclave_->ecall(kFnCheckpoint, {});
  return last_checkpoint_;
}

bool EnclaveNode::restore(crypto::BytesView sealed) {
  if (sealed.empty()) return false;
  const crypto::Bytes ok =
      enclave_->ecall(kFnRestore, crypto::Bytes(sealed.begin(), sealed.end()));
  return !ok.empty() && ok[0] == 1;
}

void EnclaveNode::inject_fault() {
  // The untrusted OS flips a bit in one of the enclave's EPC-resident
  // pages (vaddr 0 always exists: it is the first image page). The entry
  // check of the next ecall MAC-checks that page and turns this into a
  // HardwareFault.
  (void)platform_->epc().adversary_corrupt(enclave_->id(), 0, 0);
  crypto::Bytes probe;
  crypto::append_u32(probe, kQueryAttestedPeerCount);
  try {
    (void)enclave_->ecall(kFnQuery, probe);
  } catch (const sgx::HardwareFault&) {
    dead_ = true;
  }
}

bool EnclaveNode::recover() {
  relaunch();
  return restore(last_checkpoint_);
}

void EnclaveNode::start() {
  crypto::Bytes arg;
  crypto::append_u32(arg, id());
  (void)enclave_->ecall(kFnStart, arg);
}

void EnclaveNode::connect_to(netsim::NodeId peer) {
  crypto::Bytes arg;
  crypto::append_u32(arg, peer);
  (void)enclave_->ecall(kFnConnect, arg);
}

crypto::Bytes EnclaveNode::control(uint32_t subfn, crypto::BytesView payload) {
  crypto::Bytes arg;
  crypto::append_u32(arg, subfn);
  crypto::append_lv(arg, payload);
  return enclave_->ecall(kFnControl, arg);
}

uint64_t EnclaveNode::query(CoreQuery what) {
  crypto::Bytes arg;
  crypto::append_u32(arg, what);
  const crypto::Bytes out = enclave_->ecall(kFnQuery, arg);
  return crypto::read_u64(out, 0);
}

void EnclaveNode::handle_message(const netsim::Message& msg) {
  if (dead_) return;
  crypto::Bytes arg;
  crypto::append_u32(arg, msg.src);
  crypto::append_u32(arg, msg.port);
  crypto::append_lv(arg, msg.payload);
  try {
    (void)enclave_->ecall(kFnDeliver, arg);
  } catch (const sgx::HardwareFault&) {
    // Enclave faulted (e.g. tampered EPC): from the network's perspective
    // the node goes silent — the DoS outcome the threat model allows.
    dead_ = true;
  }
}

sgx::CostModel::Snapshot EnclaveNode::cost_snapshot() const {
  return platform_->total_snapshot();
}

NativeNode::NativeNode(netsim::Simulator& sim, std::string name,
                       std::unique_ptr<PlainApp> app)
    : netsim::Node(sim, name),
      app_(std::move(app)),
      rng_(crypto::Drbg::from_label(id(), "tenet.native." + name)) {}

void NativeNode::start() {
  sgx::CostScope scope(cost_);
  app_->on_start(*this);
}

crypto::Bytes NativeNode::control(uint32_t subfn, crypto::BytesView payload) {
  sgx::CostScope scope(cost_);
  return app_->on_control(*this, subfn, payload);
}

void NativeNode::handle_message(const netsim::Message& msg) {
  // Kernel/userspace receive path: one pass over the bytes.
  cost_.charge_normal(msg.payload.size());
  sgx::CostScope scope(cost_);
  app_->on_message(*this, msg.src, msg.port, msg.payload);
}

void NativeNode::send_app(netsim::NodeId dst, uint32_t port,
                          crypto::BytesView payload) {
  cost_.charge_normal(payload.size());
  send(dst, port, crypto::Bytes(payload.begin(), payload.end()));
}

}  // namespace tenet::core
