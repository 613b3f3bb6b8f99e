// Directory authority application.
//
// Implements descriptor collection, relay admission, authority-to-
// authority voting, and majority consensus — and the SGX hardening of
// §3.2: enclave-held authority state, attested inter-authority channels
// (a subverted authority cannot join the vote), and attestation-based
// automatic admission of SGX relays ("admission of new ORs can be done
// automatically... currently addition of new ORs requires manual approval
// from a majority of directory authorities, which is a bottleneck").
#pragma once

#include <set>

#include "core/secure_app.h"
#include "tor/common.h"

namespace tenet::tor {

/// Per-phase authority behaviour.
struct AuthorityPolicy {
  bool secure_votes = false;    // exchange votes over attested channels
  bool auto_admit_sgx = false;  // attest relays claiming SGX, admit on pass
};

enum AuthorityControl : uint32_t {
  kCtlApproveRelay = 1,      // u32 relay node — manual admission vote
  kCtlAttestPeers = 2,       // u32 count | u32 node... — attest co-authorities
  kCtlStartVote = 3,         // u32 epoch | u32 total authorities
  kCtlGetConsensus2 = 4,     // -> serialized consensus (empty if none)
  kCtlAdmittedCount = 5,     // -> u64
};

class AuthorityApp : public core::SecureApp {
 public:
  AuthorityApp(const sgx::Authority& authority, sgx::AttestationConfig config,
               AuthorityPolicy policy);

  void on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                        crypto::BytesView payload) override;
  void on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                         crypto::BytesView payload) override;
  void on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) override;
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

  /// Checkpoint = the admitted-relay set (§3.2: authorities "keep
  /// authority keys and list of Tor nodes inside the enclaves"; the
  /// generic checkpoint path seals it, so the list survives a restart
  /// without ever being visible to the host).
  crypto::Bytes on_checkpoint(core::Ctx& ctx) override;
  void on_restore(core::Ctx& ctx, crypto::BytesView state) override;

 protected:
  /// Hook for the subverted-authority variant (tor/attacks.h): the vote a
  /// faithful authority casts is its admitted set; an attacker rewrites it.
  virtual std::vector<RelayDescriptor> cast_vote();

  /// Hook applied to the majority result before serving it to clients; a
  /// subverted authority rewrites the document here (tie-breaking /
  /// malicious-OR injection). Faithful authorities return it unchanged.
  virtual Consensus finalize_consensus(Consensus honest) { return honest; }

  std::map<netsim::NodeId, RelayDescriptor> admitted_;

 private:
  void handle_upload(core::Ctx& ctx, crypto::BytesView body);
  void handle_vote(core::Ctx& ctx, netsim::NodeId peer,
                   crypto::BytesView body, bool over_secure_channel);
  void handle_consensus_request(core::Ctx& ctx, netsim::NodeId peer,
                                bool over_secure_channel);
  void maybe_finalize(core::Ctx& ctx);

  AuthorityPolicy policy_;
  std::map<netsim::NodeId, RelayDescriptor> pending_;
  std::set<netsim::NodeId> co_authorities_;  // attested peers for voting
  std::vector<netsim::NodeId> vote_targets_;

  uint32_t epoch_ = 0;
  uint32_t total_authorities_ = 0;
  std::map<netsim::NodeId, std::vector<RelayDescriptor>> votes_;  // by voter
  std::optional<Consensus> consensus_;
};

crypto::Bytes encode_vote(uint32_t epoch,
                          const std::vector<RelayDescriptor>& relays);

}  // namespace tenet::tor
