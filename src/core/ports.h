// Wire-level constants shared by the core runtime: ecall function numbers,
// ocall codes, and network ports used by the attested-application ABI.
#pragma once

#include <cstdint>

namespace tenet::core {

/// Ecall entry points every core-hosted enclave app understands.
enum CoreFn : uint32_t {
  kFnStart = 1,    // arg: u32 self node id
  kFnDeliver = 2,  // arg: u32 src | u32 port | LV payload
  kFnConnect = 3,  // arg: u32 peer node id — start attestation toward peer
  kFnControl = 4,  // arg: u32 subfn | LV payload — app-defined
  kFnQuery = 5,      // arg: u32 what — runtime introspection
  kFnDisconnect = 6,  // arg: u32 peer — drop peer state (allows re-attest)
  kFnTimer = 7,       // arg: u64 token — a host timer fired (see ocalls)
  kFnCheckpoint = 8,  // returns: sealed app-state blob (may be empty)
  kFnRestore = 9,     // arg: sealed blob from an earlier kFnCheckpoint
};

/// kFnQuery selectors.
enum CoreQuery : uint32_t {
  kQueryAttestationsInitiated = 1,
  kQueryAttestationsServed = 2,
  kQueryAttestedPeerCount = 3,
  kQueryRejectedRecords = 4,
  // Recovery counters (all zero unless RecoveryPolicy is enabled).
  kQueryAttestRetries = 5,   // backoff-timer retransmits of a challenge
  kQueryRehandshakes = 6,    // re-attestations of a previously attested peer
  kQueryPeerFailures = 8,    // peers given up on after the retry budget
  // Shard/replication selectors (DESIGN.md §14; all inert defaults when
  // the app is not sharded: serving=1, joined=1, counters=0).
  kQueryShardServing = 9,           // 1 iff fail-closed majority check holds
  kQueryShardJoined = 10,           // 1 once rejoin state transfer completed
  kQueryShardVersionTotal = 11,     // sum of version-vector components
  kQueryShardEntriesApplied = 12,   // replicated entries applied (first copy)
  kQueryShardRollbacksRefused = 13, // stale snapshots refused
  kQueryShardRejectedPeers = 14,    // shard msgs dropped: wrong measurement
};

/// Ocall codes issued by core-hosted apps.
enum CoreOcall : uint32_t {
  kOcallSend = 0x10,  // payload: u32 dst | u32 port | LV bytes
  kOcallLog = 0x11,   // payload: utf-8 text (debugging aid)
  // Timer service (untrusted, like any OS clock — the enclave guards
  // against stale/forged firings with the opaque token it passes here).
  kOcallScheduleTimer = 0x12,  // payload: u64 delay_us | u64 token
                               // returns: u64 timer id
  kOcallCancelTimer = 0x13,    // payload: u64 timer id
};

/// Network ports.
enum CorePort : uint32_t {
  kPortAttestChallenge = 10,  // msg1 (Figure 1)
  kPortAttestResponse = 11,   // msg2
  kPortAttestConfirm = 12,    // msg3
  kPortChannelReset = 13,     // unauthenticated "I lost our channel" NACK
  kPortSecure = 20,           // SecureChannel records
  kPortPlain = 30,            // unprotected application messages
};

}  // namespace tenet::core
