// Kept only because perfbench/main.cpp includes this header for
// mb::aesni_available(), mb::backend() and mb::Backend, which live in aes.h.
#pragma once

#include "crypto/aes.h"
