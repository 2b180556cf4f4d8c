// Runtime SIMD dispatch for the op library (docs/ops.md).
//
// Every op family under src/ops/ ships two implementations: a scalar
// reference kernel (the seed arithmetic, loop for loop) and an AVX2+FMA
// variant compiled in its own translation unit with -mavx2 -mfma.  Which
// one runs is a process-wide *tier*, resolved once at startup from a cpuid
// probe plus the FASTCHG_SIMD environment override, mirroring the
// FASTCHG_ALLOC / FASTCHG_REPLAY kill-switch idiom:
//
//   FASTCHG_SIMD=auto    (default) AVX2 when the host supports AVX2+FMA
//   FASTCHG_SIMD=scalar  force the scalar reference kernels everywhere
//   FASTCHG_SIMD=avx2    force AVX2 (falls back to scalar when the host
//                        or the build cannot run it)
//
// set_simd_tier() overrides the environment at runtime (tests sweep both
// tiers differentially).  Recorded-step programs capture the tier into
// their fingerprint and re-validate it at bind time, so a mid-run override
// can never mix tiers inside one replayed tape (core/replay.hpp).
//
// Op classes (the bit-exactness contract, asserted by tests/test_ops.cpp):
//   bit-exact         scalar and AVX2 produce bitwise identical floats:
//                     all eltwise arithmetic (IEEE add/sub/mul/div/sqrt,
//                     sign ops, clamps -- lane order does not matter for
//                     pure per-element ops), gather rows, scatter-add rows
//                     (row order preserved), column-wise sum_dim0 (per-
//                     column accumulation order preserved).  The serve
//                     path's pool/replay 0.0-diff gates ride only on these.
//   tolerance-gated   reassociating reductions (sum_all on wide lanes),
//                     FMA GEMMs, and polynomial transcendentals (basis
//                     sin/cos, rownorm exp) -- per-op bounds are pinned in
//                     tests/test_ops.cpp.
#pragma once

namespace fastchg::ops {

enum class Tier : int {
  kScalar = 0,  ///< reference kernels, bit-identical to the seed loops
  kAvx2 = 1,    ///< AVX2+FMA kernels (x86 hosts with both features)
};

/// The tier every ops:: entry point dispatches on right now.
Tier active_tier();

/// Override the tier (tests; also honors hardware limits: requesting
/// kAvx2 on a host/build without AVX2+FMA resolves to kScalar).
void set_simd_tier(Tier t);

/// Reset to the FASTCHG_SIMD / cpuid default (tests restore state).
void reset_simd_tier();

/// True when the host CPU *and* this build can run the AVX2+FMA kernels.
bool avx2_supported();

/// "scalar" / "avx2" (trace + bench labels).
const char* tier_name(Tier t);

namespace detail {
/// Defined by eltwise_avx2.cpp: true when the _avx2 translation units were
/// really compiled with AVX2+FMA (false on toolchains without -mavx2,
/// where they contain forwarding stubs).
bool avx2_kernels_compiled();
}  // namespace detail

}  // namespace fastchg::ops
