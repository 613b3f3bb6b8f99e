// Shared Tor wire messages, descriptors and deployment-phase definitions.
#pragma once

#include <optional>
#include <set>

#include "crypto/bytes.h"
#include "netsim/sim.h"

namespace tenet::tor {

/// §3.2's incremental deployment model.
enum class Phase : uint8_t {
  kBaseline = 0,        // today's Tor: no SGX anywhere
  kSgxDirectories = 1,  // the nine directory authorities run in enclaves
  kSgxRelays = 2,       // + SGX relays, attested and auto-admitted
  kFullySgx = 3,        // everything SGX; no directory authorities (DHT)
};

const char* to_string(Phase p);

/// Tags carried as the first byte of Tor-port messages.
enum class TorMsg : uint8_t {
  kCell = 1,               // serialized 512-byte cell
  kDescriptorUpload = 2,   // relay -> authority
  kConsensusRequest = 3,   // client -> authority
  kConsensusResponse = 4,  // authority -> client
  kVote = 5,               // authority <-> authority (secure when SGX)
  kExitRequest = 6,        // exit -> destination server
  kExitResponse = 7,       // destination server -> exit
};

/// Self-published relay identity + onion key.
struct RelayDescriptor {
  netsim::NodeId node = netsim::kInvalidNode;
  std::string nickname;
  crypto::Bytes onion_public;  // DH public value (group 2), fixed width
  bool exit = false;
  bool claims_sgx = false;  // triggers attestation-based auto-admission

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Accepts only serialize()'s exact output: a short input throws
  /// std::out_of_range; a flag byte other than 0 or 1, or a trailing byte,
  /// throws std::invalid_argument.
  static RelayDescriptor deserialize(crypto::BytesView wire);
};

/// A consensus document: the admitted, live relays (by majority vote).
struct Consensus {
  uint32_t epoch = 0;
  std::vector<RelayDescriptor> relays;

  [[nodiscard]] const RelayDescriptor* find(netsim::NodeId node) const;
  [[nodiscard]] std::vector<const RelayDescriptor*> exits() const;

  [[nodiscard]] crypto::Bytes serialize() const;
  static Consensus deserialize(crypto::BytesView wire);
};

crypto::Bytes tag_message(TorMsg tag, crypto::BytesView body);
TorMsg message_tag(crypto::BytesView wire);
crypto::BytesView message_body(crypto::BytesView wire);

}  // namespace tenet::tor
