#include "retrieval/mips_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <utility>

#include "autograd/serialize.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"

namespace graphaug::retrieval {
namespace {

constexpr char kMagic[8] = {'G', 'A', 'M', 'I', 'P', 'S', '0', '2'};

double NormDouble(const float* a, int64_t d) {
  double acc = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    acc += static_cast<double>(a[j]) * static_cast<double>(a[j]);
  }
  return std::sqrt(acc);
}

/// Query-norm variant with four independent accumulator chains merged in a
/// fixed order: deterministic (thread-independent), and the independent
/// chains vectorize under strict FP semantics where the single-chain loop
/// cannot. The value may differ from NormDouble in the last ulp, which is
/// harmless — query norms only feed the (margin-padded) pruning bounds.
double QueryNorm(const float* a, int64_t d) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  int64_t j = 0;
  for (; j + 4 <= d; j += 4) {
    a0 += static_cast<double>(a[j]) * static_cast<double>(a[j]);
    a1 += static_cast<double>(a[j + 1]) * static_cast<double>(a[j + 1]);
    a2 += static_cast<double>(a[j + 2]) * static_cast<double>(a[j + 2]);
    a3 += static_cast<double>(a[j + 3]) * static_cast<double>(a[j + 3]);
  }
  for (; j < d; ++j) {
    a0 += static_cast<double>(a[j]) * static_cast<double>(a[j]);
  }
  return std::sqrt((a0 + a1) + (a2 + a3));
}

double DotDouble(const float* a, const float* b, int64_t d) {
  double acc = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    acc += static_cast<double>(a[j]) * static_cast<double>(b[j]);
  }
  return acc;
}

/// Float upper bound of a double: rounds up so stored norms never
/// understate the true value.
float CeilToFloat(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// Float lower bound of a double: rounds down, for stored cosines of
/// angular radii (a smaller cosine means a wider, more conservative cone).
float FloorToFloat(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) {
    f = std::nextafter(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

/// Candidates are packed into one sortable 64-bit key: ascending key ==
/// (score descending, id ascending), the TopKHeap::Better order. The only
/// deviation is that -0.0 is canonicalized to +0.0 before packing —
/// Better treats them as equal, so the selected item set (and its order)
/// is unchanged; only a reported score of -0.0 comes back as +0.0.
uint64_t PackCandidate(float score, int32_t id) {
  uint32_t b;
  score += 0.f;  // -0.0 -> +0.0; every other value is unchanged
  std::memcpy(&b, &score, sizeof(b));
  // Monotone float-to-uint map (b ^ mask ascends with the float value),
  // inverted so larger scores get smaller keys.
  const uint32_t m = b ^ ((b & 0x80000000u) ? 0xFFFFFFFFu : 0x80000000u);
  return (static_cast<uint64_t>(~m) << 32) | static_cast<uint32_t>(id);
}

float UnpackScore(uint64_t key) {
  const uint32_t m = ~static_cast<uint32_t>(key >> 32);
  const uint32_t b = (m & 0x80000000u) ? (m ^ 0x80000000u) : ~m;
  float score;
  std::memcpy(&score, &b, sizeof(score));
  return score;
}

int32_t UnpackId(uint64_t key) {
  return static_cast<int32_t>(static_cast<uint32_t>(key));
}

}  // namespace

MipsIndex MipsIndex::Build(const Matrix& item_embeddings,
                           const MipsIndexConfig& config) {
  GA_TRACE_SPAN("mips_index_build");
  Stopwatch timer;
  const int64_t J = item_embeddings.rows();
  const int64_t d = item_embeddings.cols();
  GA_CHECK_GT(J, 0);
  GA_CHECK_GT(d, 0);
  GA_CHECK(config.bound_slack > 0.f && config.bound_slack <= 1.f);

  int64_t k = config.num_clusters;
  if (k <= 0) {
    k = static_cast<int64_t>(
        std::ceil(std::sqrt(static_cast<double>(J))));
  }
  k = std::max<int64_t>(1, std::min(k, J));

  // Unit directions; zero-norm rows stay zero (their score is always 0,
  // which the item-norm bound handles without any cone constraint).
  Matrix unit(J, d);
  std::vector<double> norms(static_cast<size_t>(J));
  for (int64_t i = 0; i < J; ++i) {
    const float* src = item_embeddings.row(i);
    float* dst = unit.row(i);
    const double n = NormDouble(src, d);
    norms[static_cast<size_t>(i)] = n;
    if (n > 0) {
      const float inv = static_cast<float>(1.0 / n);
      for (int64_t j = 0; j < d; ++j) dst[j] = src[j] * inv;
    }
  }

  // --- spherical k-means on directions (Lloyd, deterministic). Norm skew
  // never distorts the buckets, and the cone bounds below are valid for
  // *any* partition, so clustering quality only affects pruning depth,
  // never correctness. Lloyd is sensitive to its random seeding — one bad
  // restart can merge two item communities into a single wide cone that
  // defeats pruning — so several restarts run and the one with the best
  // cosine objective wins. All randomness flows from config.seed.
  Rng rng(config.seed);
  std::vector<int32_t> assign(static_cast<size_t>(J), 0);
  Matrix centroids;
  Matrix trial(k, d);
  std::vector<int32_t> trial_assign(static_cast<size_t>(J), 0);
  Matrix scores;
  const auto assign_pass = [&]() {
    // Unit centroids: argmax cosine == closest direction. One GEMM scores
    // every (item, centroid) pair.
    Gemm(unit, false, trial, true, 1.f, 0.f, &scores);
    ParallelFor(0, J, 512, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const float* row = scores.row(i);
        int32_t best = 0;
        float best_cos = row[0];
        for (int64_t c = 1; c < k; ++c) {
          if (row[c] > best_cos) {  // ties keep the lowest cluster id
            best_cos = row[c];
            best = static_cast<int32_t>(c);
          }
        }
        trial_assign[static_cast<size_t>(i)] = best;
      }
    });
  };

  std::vector<int64_t> perm(static_cast<size_t>(J));
  double best_objective = -std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < std::max(1, config.kmeans_restarts);
       ++restart) {
    std::iota(perm.begin(), perm.end(), 0);
    for (int64_t i = 0; i < k; ++i) {
      const int64_t j = rng.UniformInt(i, J);
      std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
    }
    for (int64_t c = 0; c < k; ++c) {
      std::memcpy(trial.row(c), unit.row(perm[static_cast<size_t>(c)]),
                  static_cast<size_t>(d) * sizeof(float));
    }
    for (int iter = 0; iter < std::max(0, config.kmeans_iterations); ++iter) {
      assign_pass();
      std::vector<double> sums(static_cast<size_t>(k * d), 0.0);
      std::vector<int64_t> counts(static_cast<size_t>(k), 0);
      for (int64_t i = 0; i < J; ++i) {
        const int32_t c = trial_assign[static_cast<size_t>(i)];
        const float* row = unit.row(i);
        double* s = sums.data() + static_cast<int64_t>(c) * d;
        for (int64_t j = 0; j < d; ++j) s[j] += static_cast<double>(row[j]);
        ++counts[static_cast<size_t>(c)];
      }
      for (int64_t c = 0; c < k; ++c) {
        float* mu = trial.row(c);
        const double* s = sums.data() + c * d;
        double sn = 0.0;
        for (int64_t j = 0; j < d; ++j) sn += s[j] * s[j];
        sn = std::sqrt(sn);
        if (counts[static_cast<size_t>(c)] == 0 || sn == 0.0) {
          // Reseed a dead cluster onto a random item direction.
          const int64_t r = rng.UniformInt(static_cast<int64_t>(0), J);
          std::memcpy(mu, unit.row(r),
                      static_cast<size_t>(d) * sizeof(float));
          continue;
        }
        for (int64_t j = 0; j < d; ++j) {
          mu[j] = static_cast<float>(s[j] / sn);  // renormalize to unit
        }
      }
    }
    assign_pass();  // final membership, consistent with the final centroids
    double objective = 0.0;
    for (int64_t i = 0; i < J; ++i) {
      objective += DotDouble(
          unit.row(i), trial.row(trial_assign[static_cast<size_t>(i)]), d);
    }
    if (objective > best_objective) {  // ties keep the earliest restart
      best_objective = objective;
      centroids = trial;
      assign = trial_assign;
    }
  }

  // --- pack rows grouped by cluster, norm-descending within each (ties by
  // original id, so the layout is unambiguous).
  std::vector<int64_t> order(static_cast<size_t>(J));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int32_t ca = assign[static_cast<size_t>(a)];
    const int32_t cb = assign[static_cast<size_t>(b)];
    if (ca != cb) return ca < cb;
    const double na = norms[static_cast<size_t>(a)];
    const double nb = norms[static_cast<size_t>(b)];
    if (na != nb) return na > nb;
    return a < b;
  });

  MipsIndex index;
  index.config_ = config;
  index.packed_ = Matrix(J, d);
  index.ids_.resize(static_cast<size_t>(J));
  index.norms_.resize(static_cast<size_t>(J));
  index.centroids_ = std::move(centroids);
  index.cluster_cos_.assign(static_cast<size_t>(k), 1.f);
  index.cluster_sin_.assign(static_cast<size_t>(k), 0.f);
  index.cluster_begin_.assign(static_cast<size_t>(k) + 1, 0);

  // Angular radius per cluster: the worst member alignment, tracked as a
  // cosine. Zero-norm members are skipped (no direction to constrain).
  std::vector<double> min_cos(static_cast<size_t>(k), 1.0);
  for (int64_t r = 0; r < J; ++r) {
    const int64_t src = order[static_cast<size_t>(r)];
    const int32_t c = assign[static_cast<size_t>(src)];
    std::memcpy(index.packed_.row(r), item_embeddings.row(src),
                static_cast<size_t>(d) * sizeof(float));
    index.ids_[static_cast<size_t>(r)] = static_cast<int32_t>(src);
    index.norms_[static_cast<size_t>(r)] =
        CeilToFloat(norms[static_cast<size_t>(src)]);
    ++index.cluster_begin_[static_cast<size_t>(c) + 1];
    if (norms[static_cast<size_t>(src)] > 0) {
      const double cosine =
          DotDouble(unit.row(src), index.centroids_.row(c), d);
      min_cos[static_cast<size_t>(c)] =
          std::min(min_cos[static_cast<size_t>(c)], cosine);
    }
  }
  for (int64_t c = 0; c < k; ++c) {
    const double cc = std::clamp(min_cos[static_cast<size_t>(c)], -1.0, 1.0);
    // cos rounds down (wider cone), sin rounds up: both conservative.
    index.cluster_cos_[static_cast<size_t>(c)] =
        std::max(-1.f, FloorToFloat(cc));
    index.cluster_sin_[static_cast<size_t>(c)] =
        std::min(1.f, CeilToFloat(std::sqrt(std::max(0.0, 1.0 - cc * cc))));
    index.cluster_begin_[static_cast<size_t>(c) + 1] +=
        index.cluster_begin_[static_cast<size_t>(c)];
  }
  GA_CHECK(index.CheckConsistent());
  index.InitPanels();

  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Get();
    reg.GetCounter("retrieval.index_builds")->Inc();
    reg.GetCounter("retrieval.index_build_us")
        ->Inc(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  }
  return index;
}

void MipsIndex::RetrieveBatch(const Matrix& queries, int k,
                              const ExcludeFn& exclude,
                              std::vector<TopKList>* out) const {
  GA_TRACE_SPAN("topk_pruned");
  GA_CHECK_EQ(queries.cols(), packed_.cols());
  const int64_t q = queries.rows();
  const int64_t J = num_items();
  const int64_t d = packed_.cols();
  const int64_t nc = num_clusters();
  // resize + clear instead of assign: a caller that reuses the output
  // vector across calls keeps each list's capacity, so steady-state
  // serving does no per-query allocation.
  out->resize(static_cast<size_t>(q));
  for (TopKList& list : *out) {
    list.items.clear();
    list.scores.clear();
  }
  if (q == 0 || k <= 0) return;
  const double slack = static_cast<double>(config_.bound_slack);
  // norms_ is sorted within clusters, not globally; take the true max once.
  const double max_norm =
      norms_.empty()
          ? 0.0
          : static_cast<double>(*std::max_element(norms_.begin(), norms_.end()));
  // Scores are float-rounded; the exact dot can exceed one by about
  // d*2^-24 * ||q||*||x||. The margin dominates that error for any
  // realistic d, so every pruning comparison stays a true upper bound of
  // the float score a surviving item could have produced.
  const double margin_coef =
      std::max(1e-5, static_cast<double>(d) * 1.2e-7);

  // All query/centroid cosines in one GEMM: the bound computation is
  // throughput-bound there instead of latency-bound per query. Per-element
  // GEMM results are independent of thread count (kernel contract), so the
  // bounds — and everything derived from them — stay deterministic.
  Matrix cos_dots;
  Gemm(queries, false, centroids_, true, 1.f, 0.f, &cos_dots);

  // Read the kernel table once for the whole batch (dispatch contract:
  // never mix tables mid-operation). score_panels is bitwise identical
  // across tables, so even a mid-run ForceScalarKernels flip could not
  // change results — reading once just honors the calling convention.
  const simd::KernelTable& kt = simd::ActiveKernels();

  std::atomic<int64_t> scored_total{0}, pruned_total{0}, cpruned_total{0};

  // Each query is independent. Chunks of 64 amortize the pool dispatch
  // without starving load balance (per-query cost is near-uniform at ~1us).
  // All state is per-query (the exclusion bitmap is cleared back by list
  // after each query): results are bitwise identical at any thread count.
  ParallelFor(0, q, 64, [&](int64_t begin, int64_t end) {
    std::vector<float> bounds(static_cast<size_t>(nc));
    std::vector<float> cones(static_cast<size_t>(nc));
    std::vector<uint8_t> excluded(static_cast<size_t>(J), 0);
    // Candidate keys, kept sorted ascending (= Better order) and capped at
    // k: the floor is always cand.back() and the final list needs no sort.
    std::vector<uint64_t> cand;
    cand.reserve(static_cast<size_t>(k));
    int64_t scored = 0, pruned = 0, cpruned = 0;
    for (int64_t qi = begin; qi < end; ++qi) {
      const float* qv = queries.row(qi);
      const std::vector<int32_t>& ex = exclude(qi);
      for (const int32_t id : ex) {
        if (id >= 0 && id < J) excluded[static_cast<size_t>(id)] = 1;
      }
      const double qn = QueryNorm(qv, d);
      const double margin = margin_coef * qn * max_norm + 1e-30;
      const float inv_qnf = qn > 0 ? static_cast<float>(1.0 / qn) : 0.f;
      const float qnf = static_cast<float>(qn);
      const float* bd = cos_dots.row(qi);
      // Cone factor: angle(q, x) >= theta_q - theta_c for every member, so
      // q·x <= ||q||*||x||*cos(max(0, theta_q - theta_c)). The 1e-3 pad
      // absorbs the float rounding of the GEMM cosine (the cq>0.999 fast
      // path sidesteps the sqrt's error blow-up near cq=1), and it dwarfs
      // the ~1e-7 relative error of evaluating the bound in float — which
      // keeps this loop branch-free and lets it vectorize across clusters.
      // Empty clusters have zero stored norms, hence bound 0: visiting one
      // is a no-op, so no special case is needed.
      for (int64_t c = 0; c < nc; ++c) {
        const size_t cs = static_cast<size_t>(c);
        const float cq =
            qn > 0 ? std::clamp(bd[c] * inv_qnf, -1.f, 1.f) : 1.f;
        const float cc = cluster_cos_[cs];
        const float sq = std::sqrt(std::max(0.f, 1.f - cq * cq));
        const float wide =
            std::min(1.f, cq * cc + sq * cluster_sin_[cs] + 1e-3f);
        const float cone = (cq >= cc || cq > 0.999f) ? 1.f : wide;
        // A negative cone factor flips which norm maximizes the bound.
        const float cn =
            cone >= 0.f ? cluster_max_norm_[cs] : cluster_min_norm_[cs];
        cones[cs] = cone;
        bounds[cs] = qnf * cn * cone;
      }

      cand.clear();
      double floor_s = -std::numeric_limits<double>::infinity();
      bool have_floor = false;
      int64_t items_left = J;
      int64_t clusters_left = nc;
      // Visit clusters best-bound-first via repeated argmax (visited
      // bounds are knocked down to -inf). Only a handful of clusters
      // survive the floor, so selecting lazily beats sorting all of them.
      for (;;) {
        int64_t best = -1;
        float bb = -std::numeric_limits<float>::infinity();
        for (int64_t c = 0; c < nc; ++c) {
          if (bounds[static_cast<size_t>(c)] > bb) {
            bb = bounds[static_cast<size_t>(c)];
            best = c;  // strict > keeps the lowest cluster id on ties
          }
        }
        if (best < 0) break;
        if (have_floor &&
            static_cast<double>(bb) * slack + margin < floor_s) {
          // Every unvisited cluster has bound <= bb: all dead.
          pruned += items_left;
          cpruned += clusters_left;
          break;
        }
        bounds[static_cast<size_t>(best)] =
            -std::numeric_limits<float>::infinity();
        const double cone =
            static_cast<double>(cones[static_cast<size_t>(best)]);
        const int64_t lo = cluster_begin_[static_cast<size_t>(best)];
        const int64_t hi = cluster_begin_[static_cast<size_t>(best) + 1];
        const float* panels =
            pack8_.data() + panel_base_[static_cast<size_t>(best)];
        items_left -= hi - lo;
        --clusters_left;
        int64_t r = lo;
        while (r < hi) {
          // Norm-descending layout: once one item's cone bound dips under
          // the floor, the rest of the list is dead too. (Only valid for
          // a nonnegative cone factor — with a negative one the bound
          // grows as norms shrink, and the list is scanned in full.)
          if (have_floor && cone >= 0 &&
              qn * static_cast<double>(norms_[static_cast<size_t>(r)]) *
                          cone * slack + margin <
                  floor_s) {
            pruned += hi - r;
            break;
          }
          // Score up to two panels (16 items) per step; the boundaries
          // depend only on the packed layout, never on thread count, and
          // each item's score is bitwise what the one-at-a-time loop would
          // produce. r always enters on a panel boundary.
          const int64_t blk = std::min<int64_t>(16, hi - r);
          float s[16];
          kt.score_panels(qv, panels + ((r - lo) / 8) * 8 * d, d,
                          (blk + 7) / 8, s);
          scored += blk;
          for (int64_t t = 0; t < blk; ++t) {
            // Strict <: an equal score can still win on the id tie-break.
            if (have_floor && static_cast<double>(s[t]) < floor_s) continue;
            const int32_t id = ids_[static_cast<size_t>(r + t)];
            if (excluded[static_cast<size_t>(id)]) continue;
            const uint64_t key = PackCandidate(s[t], id);
            // Bounded insertion keeps cand sorted with the floor always
            // current. Items arrive roughly score-descending (norm order),
            // so inserts rarely shift more than a few keys — cheaper than
            // batched nth_element compaction, and a floor that tightens on
            // every insert prunes earlier too.
            int64_t p = static_cast<int64_t>(cand.size()) - 1;
            if (p + 1 < k) {
              cand.push_back(key);
            } else if (key < cand.back()) {
              --p;  // overwrite the ousted worst key while shifting
            } else {
              continue;  // not better than the current k-th best
            }
            while (p >= 0 && cand[static_cast<size_t>(p)] > key) {
              cand[static_cast<size_t>(p) + 1] = cand[static_cast<size_t>(p)];
              --p;
            }
            cand[static_cast<size_t>(p) + 1] = key;
            if (static_cast<int>(cand.size()) == k) {
              floor_s = static_cast<double>(UnpackScore(cand.back()));
              have_floor = true;
            }
          }
          r += blk;
        }
      }
      TopKList& list = (*out)[static_cast<size_t>(qi)];
      if (!cand.empty()) {
        // cand is already sorted in Better order; just unpack it.
        list.items.reserve(cand.size());
        list.scores.reserve(cand.size());
        for (const uint64_t key : cand) {
          list.items.push_back(UnpackId(key));
          list.scores.push_back(UnpackScore(key));
        }
      }
      for (const int32_t id : ex) {
        if (id >= 0 && id < J) excluded[static_cast<size_t>(id)] = 0;
      }
    }
    scored_total.fetch_add(scored, std::memory_order_relaxed);
    pruned_total.fetch_add(pruned, std::memory_order_relaxed);
    cpruned_total.fetch_add(cpruned, std::memory_order_relaxed);
  });

  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Get();
    reg.GetCounter("retrieval.queries")->Inc(q);
    reg.GetCounter("retrieval.items_scored")
        ->Inc(scored_total.load(std::memory_order_relaxed));
    reg.GetCounter("retrieval.items_pruned")
        ->Inc(pruned_total.load(std::memory_order_relaxed));
    reg.GetCounter("retrieval.clusters_pruned")
        ->Inc(cpruned_total.load(std::memory_order_relaxed));
  }
}

bool MipsIndex::Save(const std::string& path) const {
  std::ofstream fout(path, std::ios::binary);
  if (!fout) return false;
  fout.write(kMagic, sizeof(kMagic));
  io::WritePod(fout, static_cast<int32_t>(config_.num_clusters));
  io::WritePod(fout, static_cast<int32_t>(config_.kmeans_iterations));
  io::WritePod(fout, static_cast<int32_t>(config_.kmeans_restarts));
  io::WritePod(fout, config_.seed);
  io::WritePod(fout, config_.bound_slack);
  io::WriteMatrix(fout, packed_);
  io::WriteMatrix(fout, centroids_);
  io::WritePodVec(fout, ids_);
  io::WritePodVec(fout, norms_);
  io::WritePodVec(fout, cluster_cos_);
  io::WritePodVec(fout, cluster_sin_);
  io::WritePodVec(fout, cluster_begin_);
  return fout.good();
}

bool MipsIndex::Load(const std::string& path, MipsIndex* index) {
  std::ifstream fin(path, std::ios::binary);
  if (!fin) return false;
  char magic[8];
  fin.read(magic, sizeof(magic));
  if (!fin.good() || std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    GA_LOG(Error) << "bad MIPS index magic in " << path;
    return false;
  }
  MipsIndex tmp;
  int32_t num_clusters = 0, kmeans_iterations = 0, kmeans_restarts = 0;
  if (!io::ReadPod(fin, &num_clusters) ||
      !io::ReadPod(fin, &kmeans_iterations) ||
      !io::ReadPod(fin, &kmeans_restarts) ||
      !io::ReadPod(fin, &tmp.config_.seed) ||
      !io::ReadPod(fin, &tmp.config_.bound_slack) ||
      !io::ReadMatrix(fin, &tmp.packed_) ||
      !io::ReadMatrix(fin, &tmp.centroids_) ||
      !io::ReadPodVec(fin, &tmp.ids_) ||
      !io::ReadPodVec(fin, &tmp.norms_) ||
      !io::ReadPodVec(fin, &tmp.cluster_cos_) ||
      !io::ReadPodVec(fin, &tmp.cluster_sin_) ||
      !io::ReadPodVec(fin, &tmp.cluster_begin_)) {
    GA_LOG(Error) << "truncated MIPS index in " << path;
    return false;
  }
  tmp.config_.num_clusters = num_clusters;
  tmp.config_.kmeans_iterations = kmeans_iterations;
  tmp.config_.kmeans_restarts = kmeans_restarts;
  if (!tmp.CheckConsistent()) {
    GA_LOG(Error) << "inconsistent MIPS index in " << path;
    return false;
  }
  tmp.InitPanels();
  *index = std::move(tmp);
  return true;
}

bool MipsIndex::CheckConsistent() const {
  const int64_t J = packed_.rows();
  const int64_t nc = static_cast<int64_t>(cluster_cos_.size());
  if (J <= 0 || packed_.cols() <= 0) return false;
  if (static_cast<int64_t>(ids_.size()) != J) return false;
  if (static_cast<int64_t>(norms_.size()) != J) return false;
  if (nc <= 0 || nc > J) return false;
  if (centroids_.rows() != nc || centroids_.cols() != packed_.cols()) {
    return false;
  }
  if (static_cast<int64_t>(cluster_sin_.size()) != nc) return false;
  if (static_cast<int64_t>(cluster_begin_.size()) != nc + 1) return false;
  if (cluster_begin_.front() != 0 || cluster_begin_.back() != J) return false;
  for (int64_t c = 0; c < nc; ++c) {
    if (cluster_begin_[static_cast<size_t>(c)] >
        cluster_begin_[static_cast<size_t>(c) + 1]) {
      return false;
    }
    const float cc = cluster_cos_[static_cast<size_t>(c)];
    const float sc = cluster_sin_[static_cast<size_t>(c)];
    if (!(cc >= -1.f && cc <= 1.f && sc >= 0.f && sc <= 1.f)) return false;
  }
  if (!(config_.bound_slack > 0.f && config_.bound_slack <= 1.f)) {
    return false;
  }
  std::vector<bool> seen(static_cast<size_t>(J), false);
  for (const int32_t id : ids_) {
    if (id < 0 || id >= J || seen[static_cast<size_t>(id)]) return false;
    seen[static_cast<size_t>(id)] = true;
  }
  return true;
}

void MipsIndex::InitPanels() {
  const int64_t d = packed_.cols();
  const int64_t nc = num_clusters();
  panel_base_.assign(static_cast<size_t>(nc), 0);
  cluster_max_norm_.assign(static_cast<size_t>(nc), 0.f);
  cluster_min_norm_.assign(static_cast<size_t>(nc), 0.f);
  int64_t panels = 0;
  for (int64_t c = 0; c < nc; ++c) {
    panel_base_[static_cast<size_t>(c)] = panels * 8 * d;
    const int64_t lo = cluster_begin_[static_cast<size_t>(c)];
    const int64_t hi = cluster_begin_[static_cast<size_t>(c) + 1];
    if (lo < hi) {
      // Norm-descending layout: first row has the max, last the min.
      cluster_max_norm_[static_cast<size_t>(c)] =
          norms_[static_cast<size_t>(lo)];
      cluster_min_norm_[static_cast<size_t>(c)] =
          norms_[static_cast<size_t>(hi) - 1];
    }
    panels += (hi - lo + 7) / 8;  // last panel zero-padded past the cluster end
  }
  pack8_.assign(static_cast<size_t>(panels * 8 * d), 0.f);
  for (int64_t c = 0; c < nc; ++c) {
    const int64_t lo = cluster_begin_[static_cast<size_t>(c)];
    const int64_t hi = cluster_begin_[static_cast<size_t>(c) + 1];
    float* base = pack8_.data() + panel_base_[static_cast<size_t>(c)];
    for (int64_t r = lo; r < hi; ++r) {
      const float* src = packed_.row(r);
      float* dst = base + ((r - lo) / 8) * 8 * d + ((r - lo) % 8);
      for (int64_t j = 0; j < d; ++j) dst[j * 8] = src[j];
    }
  }
}

}  // namespace graphaug::retrieval
