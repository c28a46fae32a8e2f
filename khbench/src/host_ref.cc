#include "host_ref.h"

#include <algorithm>

#include "bench_util.h"

namespace khb {

HostRef::HostRef(uint32_t n, uint32_t out_degree) {
  // Built in place, with no edge list: the graph is drawn twice from the
  // same seed, once to size each adjacency run and once to fill it. Only
  // the CSR itself is ever resident, so the reference adds a fixed ~8 MB
  // to the process and no build-time peak to peak_rss_mb.
  auto for_each_edge = [n, out_degree](auto&& add) {
    Rng rng(0x5EED0F4057ull);
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t j = 0; j < out_degree; ++j) {
        const uint32_t v = rng.Index(n);
        if (v != u) add(u, v);
      }
    }
  };
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for_each_edge([&](uint32_t u, uint32_t v) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  });
  for (uint32_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  targets_.resize(offsets_[n]);
  std::vector<uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
  for_each_edge([&](uint32_t u, uint32_t v) {
    targets_[fill[u]++] = v;
    targets_[fill[v]++] = u;
  });
  fill = {};
  // Sort and deduplicate each run, compacting the array towards the front.
  uint64_t out = 0;
  for (uint32_t v = 0; v < n; ++v) {
    const auto first = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]);
    const auto last = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    offsets_[v] = out;
    for (auto it = first; it != unique_end; ++it) targets_[out++] = *it;
  }
  offsets_[n] = out;
  targets_.resize(out);
  stamp_.assign(n, 0);
}

uint64_t HostRef::Sweep(uint32_t first, uint32_t count) {
  const uint32_t n = num_vertices();
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t s = (first + i) % n;
    if (++epoch_ == 0) {  // stamp wrap: clear once every 2^32 sources
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    stamp_[s] = epoch_;
    for (uint64_t a = offsets_[s]; a < offsets_[s + 1]; ++a) {
      const uint32_t u = targets_[a];
      if (stamp_[u] != epoch_) {
        stamp_[u] = epoch_;
        ++total;
      }
      for (uint64_t b = offsets_[u]; b < offsets_[u + 1]; ++b) {
        const uint32_t w = targets_[b];
        if (stamp_[w] != epoch_) {
          stamp_[w] = epoch_;
          ++total;
        }
      }
    }
  }
  return total;
}

uint64_t HostRef::Slice(uint32_t sources) {
  const Clock::time_point start = Clock::now();
  const uint64_t sum = Sweep(cursor_, sources);
  slice_ms_.push_back(SecondsSince(start) * 1e3);
  cursor_ = (cursor_ + sources) % num_vertices();
  return sum;
}

double HostRef::MedianMs() const {
  return slice_ms_.empty() ? 0.0 : Median(slice_ms_);
}

}  // namespace khb
