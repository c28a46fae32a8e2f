// Host-speed reference kernel. Every end-to-end timing is divided by how
// fast this machine runs a fixed, memory-bound 2-hop BFS sweep in the same
// run, because on shared hosts the speed of the whole box drifts by tens of
// percent between minutes while the ratio of our workloads to this kernel
// stays within a few percent. The kernel runs over a private CSR built and
// walked with no library calls, so no change to the library can move it.
#ifndef KHBENCH_HOST_REF_H_
#define KHBENCH_HOST_REF_H_

#include <cstdint>
#include <vector>

namespace khb {

/// Nominal time of one reference slice (ms): about the median slice time
/// over the steadiness runs on the 4-vCPU host the bounds were set on.
/// Normalised timings read as "raw time on a host that runs one slice in
/// this many ms".
inline constexpr double kHostRefNominalMs = 3.3;

/// How much the workloads' times grow per unit of reference slowdown: about
/// as the square root of host_ref_ms on the host the benchmark was tuned
/// on. Of the exponents 0, 1/4, 1/2, 3/4 and 1, only 1/2 kept every
/// workload's medians within 0.23 of each other across sets taken in host
/// phases with the reference at 3.3 to 5.3 ms (raw setup times moved by up
/// to 0.66, fully normalised timings by up to 0.35). README.md has the
/// table.
inline constexpr double kHostRefElasticity = 0.5;

/// Checksum of the first default-size slice over the default graph.
inline constexpr uint64_t kHostRefFirstSliceChecksum = 231457;

class HostRef {
 public:
  /// Builds the fixed reference graph: `n` vertices, each joined to
  /// `out_degree` uniformly random others (fixed seed; identical every run).
  explicit HostRef(uint32_t n = 1u << 17, uint32_t out_degree = 6);

  /// Runs one slice: 2-hop neighbourhood sizes of `sources` consecutive
  /// source vertices (continuing where the previous slice stopped). Returns
  /// the sum of the sizes, and records the slice time.
  uint64_t Slice(uint32_t sources = 1536);

  /// Sum of 2-hop neighbourhood sizes (excluding the source) of vertices
  /// [first, first + count), with no timing. The kernel checksum.
  uint64_t Sweep(uint32_t first, uint32_t count);

  /// Slice times recorded so far, in ms.
  const std::vector<double>& slice_ms() const { return slice_ms_; }
  /// Median slice time in ms (0 if no slice ran).
  double MedianMs() const;

  uint32_t num_vertices() const { return static_cast<uint32_t>(offsets_.size() - 1); }
  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<uint32_t>& targets() const { return targets_; }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  uint32_t cursor_ = 0;
  std::vector<double> slice_ms_;
};

}  // namespace khb

#endif  // KHBENCH_HOST_REF_H_
