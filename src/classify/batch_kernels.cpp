#include "classify/batch_kernels.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace spoofscope::classify {

namespace {

bool cpu_has_avx2() {
#if SPOOFSCOPE_KERNEL_AVX2
  // GCC/clang resolve this to a cached cpuid probe; the kernel TU is
  // compiled with -mavx2 but only ever entered behind this check.
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

SimdKernel best_usable() {
  if (simd_kernel_usable(SimdKernel::kAvx2)) return SimdKernel::kAvx2;
  if (simd_kernel_usable(SimdKernel::kNeon)) return SimdKernel::kNeon;
  return SimdKernel::kScalar;
}

SimdKernel auto_kernel() {
  const char* env = std::getenv("SPOOFSCOPE_SIMD");
  if (env == nullptr || *env == '\0') return best_usable();
  const auto parsed = parse_simd_kernel(env);
  if (!parsed) {
    throw std::runtime_error(std::string("SPOOFSCOPE_SIMD: unknown kernel '") +
                             env + "' (want auto|scalar|avx2|neon)");
  }
  if (*parsed == SimdKernel::kAuto) return best_usable();
  if (!simd_kernel_usable(*parsed)) {
    throw std::runtime_error(std::string("SPOOFSCOPE_SIMD: kernel '") + env +
                             "' not usable on this build/CPU");
  }
  return *parsed;
}

}  // namespace

const char* simd_kernel_name(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kAuto: return "auto";
    case SimdKernel::kScalar: return "scalar";
    case SimdKernel::kAvx2: return "avx2";
    case SimdKernel::kNeon: return "neon";
  }
  return "auto";
}

std::optional<SimdKernel> parse_simd_kernel(std::string_view name) {
  if (name == "auto") return SimdKernel::kAuto;
  if (name == "scalar") return SimdKernel::kScalar;
  if (name == "avx2") return SimdKernel::kAvx2;
  if (name == "neon") return SimdKernel::kNeon;
  return std::nullopt;
}

bool simd_kernel_compiled(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kAuto:
    case SimdKernel::kScalar:
      return true;
    case SimdKernel::kAvx2:
      return SPOOFSCOPE_KERNEL_AVX2 != 0;
    case SimdKernel::kNeon:
      return SPOOFSCOPE_KERNEL_NEON != 0;
  }
  return false;
}

bool simd_kernel_usable(SimdKernel kernel) {
  if (!simd_kernel_compiled(kernel)) return false;
  if (kernel == SimdKernel::kAvx2) return cpu_has_avx2();
  return true;
}

std::vector<SimdKernel> usable_simd_kernels() {
  std::vector<SimdKernel> kernels{SimdKernel::kScalar};
  if (simd_kernel_usable(SimdKernel::kAvx2)) kernels.push_back(SimdKernel::kAvx2);
  if (simd_kernel_usable(SimdKernel::kNeon)) kernels.push_back(SimdKernel::kNeon);
  return kernels;
}

SimdKernel resolve_simd_kernel(SimdKernel requested) {
  if (requested == SimdKernel::kAuto) return auto_kernel();
  if (!simd_kernel_usable(requested)) {
    throw std::runtime_error(
        std::string("simd kernel '") + simd_kernel_name(requested) +
        "' not usable on this build/CPU");
  }
  return requested;
}

}  // namespace spoofscope::classify
