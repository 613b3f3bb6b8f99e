#pragma once
// In-process access to the trusted app an enclave hosts, for tests only.
// A host reaches the app only through ecalls; this reads the app's state
// directly, so a test can check trusted state no ecall may reveal (the
// partials a controller replica holds). `scripts/ci.sh lint` keeps it out
// of everything but tests.
#include "sgx/enclave.h"

namespace tenet::sgx {

struct EnclaveInspector {
  template <typename App>
  static const App& app(Enclave& enclave) {
    return dynamic_cast<const App&>(*enclave.app_);
  }
};

}  // namespace tenet::sgx
