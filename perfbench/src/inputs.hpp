// The benchmark's inputs: one paper-scale world per seed, written as the
// files `spoofscope generate --scale ixp` writes, plus a pair of route
// churn files for the serve workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Paths of the generated files inside one input directory.
struct InputFiles {
  std::string trace;    ///< ixp.trace
  std::string mrt;      ///< route-server.mrt
  std::string rpsl;     ///< registry.rpsl
  std::string forward;  ///< churn-forward.mrt: 100 route updates
  std::string inverse;  ///< churn-inverse.mrt: their exact inverse

  static InputFiles in(const std::string& dir);
};

/// Builds the world for `seed` at ScenarioParams::paper() scale and
/// writes every input file into `dir` (created if missing). The files
/// are a pure function of the seed, whatever `threads` is.
void generate_inputs(std::uint64_t seed, const std::string& dir,
                     std::size_t threads);

/// 64-bit FNV-1a over a byte range, continuing from `h`.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t h = 0xcbf29ce484222325ull);

/// fnv1a64 of each input file's bytes, keyed by file name.
std::map<std::string, std::uint64_t> input_digests(const std::string& dir);

}  // namespace perfbench
