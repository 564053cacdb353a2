// Top-K retrieval benchmark (BENCH_topk.json): times list SERVING — the
// per-user top-20 recommendation lists with training items excluded —
// through each serving path at several user/item scales, and records the
// quality axes the CI topk-gate enforces:
//
//   * speedup_vs_dense: wall-clock of the retrieval engines over the
//     dense brute-force serve (one GEMM over all items + partial-sort per
//     user), at matched thread counts. A ratio of two same-machine
//     timings, so the committed baseline transfers across machines.
//   * recall: top-20 set overlap against the dense oracle lists.
//   * exact_match: bit-for-bit Evaluator metric equality with the dense
//     path (computed untimed; proves end-to-end parity, not just list
//     parity).
//
// The heap engine must reproduce the dense oracle lists exactly and match
// its metrics bit for bit — any deviation is a correctness bug and fails
// the benchmark outright, not just the gate. The pruned engine at
// bound_slack = 1 is also exact; the gate only requires recall >= 0.99 so
// sub-1 slack configurations remain usable.
//
// Embeddings are synthetic but structured the way trained ones are:
// community-clustered latent factors with item norms scaled by Zipf
// popularity (popular items have larger norms after MF training, which is
// exactly the regime the cone + norm bounds prune).
//
// Flags: --json-out=FILE, --fast (small scale only), --full (adds a
// 12000x6000 scale), --reps=N.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "retrieval/mips_index.h"
#include "retrieval/topk.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

constexpr int kServeK = 20;

/// Packs every metric double into a Matrix (two floats per double,
/// bit-preserving) so metric parity can be asserted with one memcmp.
Matrix MetricsMatrix(const TopKMetrics& m) {
  std::vector<double> vals;
  for (const std::vector<double>* v :
       {&m.recall, &m.ndcg, &m.precision, &m.hit_rate, &m.map, &m.mrr}) {
    vals.insert(vals.end(), v->begin(), v->end());
  }
  Matrix out(1, static_cast<int64_t>(vals.size()) * 2);
  std::memcpy(out.data(), vals.data(), vals.size() * sizeof(double));
  return out;
}

bool MetricsExactlyEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

bool ListsIdentical(const std::vector<retrieval::TopKList>& a,
                    const std::vector<retrieval::TopKList>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].items != b[i].items) return false;
    if (a[i].scores.size() != b[i].scores.size()) return false;
    if (!a[i].scores.empty() &&
        std::memcmp(a[i].scores.data(), b[i].scores.data(),
                    a[i].scores.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Mean top-k overlap of `lists` against the oracle lists:
/// |retrieved ∩ oracle| / |oracle| averaged over users.
double MeanRecallVsOracle(const std::vector<retrieval::TopKList>& lists,
                          const std::vector<retrieval::TopKList>& oracle) {
  if (oracle.empty()) return 1.0;
  double total = 0;
  for (size_t i = 0; i < oracle.size(); ++i) {
    std::vector<int32_t> want = oracle[i].items;
    std::sort(want.begin(), want.end());
    int hits = 0;
    for (int32_t id : lists[i].items) {
      if (std::binary_search(want.begin(), want.end(), id)) ++hits;
    }
    total += want.empty()
                 ? 1.0
                 : static_cast<double>(hits) / static_cast<double>(want.size());
  }
  return total / static_cast<double>(oracle.size());
}

struct ScaleInputs {
  std::shared_ptr<SyntheticData> data;
  std::shared_ptr<Evaluator> evaluator;
  std::shared_ptr<Matrix> ue, ie;
  std::shared_ptr<Matrix> queries;                ///< evaluable-user rows
  std::vector<std::vector<int32_t>> train_items;  ///< per user, sorted
  std::string shape;
};

ScaleInputs BuildScale(int32_t users, int32_t items) {
  ScaleInputs s;
  SyntheticConfig cfg;
  cfg.num_users = users;
  cfg.num_items = items;
  cfg.mean_user_degree = 16.0;
  cfg.latent_dim = 32;
  cfg.num_communities = 12;
  cfg.factor_noise = 0.08f;
  cfg.seed = 21;
  s.data = std::make_shared<SyntheticData>(GenerateSynthetic(cfg));
  s.evaluator =
      std::make_shared<Evaluator>(&s.data->dataset, std::vector<int>{20, 40});
  s.ue = std::make_shared<Matrix>(s.data->user_factors);
  s.ie = std::make_shared<Matrix>(s.data->item_factors);
  // Popularity-skewed item norms: scale item j by (1 + degree_j)^0.35,
  // mimicking the norm distribution BPR-trained embeddings develop.
  std::vector<int64_t> degree(static_cast<size_t>(items), 0);
  for (const Edge& e : s.data->dataset.train_edges) ++degree[e.item];
  for (int64_t j = 0; j < s.ie->rows(); ++j) {
    const float scale = static_cast<float>(
        std::pow(1.0 + static_cast<double>(degree[static_cast<size_t>(j)]),
                 0.35));
    float* row = s.ie->row(j);
    for (int64_t c = 0; c < s.ie->cols(); ++c) row[c] *= scale;
  }
  s.train_items.assign(static_cast<size_t>(users), {});
  for (const Edge& e : s.data->dataset.train_edges) {
    s.train_items[e.user].push_back(e.item);
  }
  for (auto& v : s.train_items) std::sort(v.begin(), v.end());
  s.queries = std::make_shared<Matrix>(
      GatherRows(*s.ue, s.evaluator->evaluable_users()));
  s.shape = std::to_string(users) + "users_x" + std::to_string(items) +
            "items";
  return s;
}

/// Dense brute-force serving: batched GEMM against every item, mask the
/// training items, partial-sort to depth k. This is the oracle the
/// retrieval engines are compared against — same tie-breaking (score
/// desc, id asc), deterministic at any thread count (each user's row is
/// private to one chunk).
void DenseServe(const ScaleInputs& s, int k,
                std::vector<retrieval::TopKList>* out) {
  const std::vector<int32_t>& eu = s.evaluator->evaluable_users();
  const int64_t q = static_cast<int64_t>(eu.size());
  const int64_t J = s.ie->rows();
  out->assign(static_cast<size_t>(q), retrieval::TopKList{});
  constexpr int64_t kUserBatch = 512;
  for (int64_t b = 0; b < q; b += kUserBatch) {
    const int64_t e = std::min(q, b + kUserBatch);
    const std::vector<int32_t> batch(eu.begin() + b, eu.begin() + e);
    Matrix block = GatherRows(*s.ue, batch);
    Matrix scores;
    Gemm(block, false, *s.ie, true, 1.f, 0.f, &scores);
    ParallelFor(0, e - b, 128, [&](int64_t begin, int64_t end) {
      std::vector<int32_t> order(static_cast<size_t>(J));
      for (int64_t i = begin; i < end; ++i) {
        float* row = scores.row(i);
        for (const int32_t v : s.train_items[static_cast<size_t>(
                 eu[static_cast<size_t>(b + i)])]) {
          row[v] = -std::numeric_limits<float>::infinity();
        }
        std::iota(order.begin(), order.end(), 0);
        const int64_t depth = std::min<int64_t>(k, J);
        std::partial_sort(order.begin(), order.begin() + depth, order.end(),
                          [row](int32_t a, int32_t b2) {
                            return row[a] != row[b2] ? row[a] > row[b2]
                                                     : a < b2;
                          });
        retrieval::TopKList& list = (*out)[static_cast<size_t>(b + i)];
        list.items.assign(order.begin(), order.begin() + depth);
        list.scores.resize(static_cast<size_t>(depth));
        for (int64_t r = 0; r < depth; ++r) {
          list.scores[static_cast<size_t>(r)] =
              row[list.items[static_cast<size_t>(r)]];
        }
      }
    });
  }
}

/// Serving through a Retriever with the same exclusion protocol.
void RetrieverServe(const ScaleInputs& s, const retrieval::Retriever& r,
                    int k, std::vector<retrieval::TopKList>* out) {
  const std::vector<int32_t>& eu = s.evaluator->evaluable_users();
  r.RetrieveBatch(*s.queries, k,
                  [&](int64_t qi) -> const std::vector<int32_t>& {
                    return s.train_items[static_cast<size_t>(
                        eu[static_cast<size_t>(qi)])];
                  },
                  out);
}

struct ModeRow {
  std::string name;
  std::function<void(std::vector<retrieval::TopKList>*)> serve;
  double recall = -1;    ///< <0: omit the column (dense row)
  int exact_match = -1;  ///< -1 omit, 0/1 emit
  double build_seconds = -1;
};

int RunBench(const FlagParser& flags) {
  const std::string json_path = flags.GetString("json-out", "BENCH_topk.json");
  const bool fast = flags.GetBool("fast", false);
  const bool full = flags.GetBool("full", false);
  const int reps = flags.GetInt32("reps", 3);

  SetNumThreads(0);
  const int hw = NumThreads();
  std::vector<int> counts = {1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  const bench::BenchEnv env = bench::GetBenchEnv();
  std::fprintf(f, "{\n  \"generated_by\": \"bench_topk\",\n");
  std::fprintf(f, "  \"fast_mode\": %s,\n", fast ? "true" : "false");
  std::fprintf(f, "  \"serve_k\": %d,\n", kServeK);
  std::fprintf(f, "%s", bench::BenchEnvJsonFields(env, 2).c_str());
  std::fprintf(f, "  \"simd_level\": \"%s\",\n",
               SimdLevelName(ActiveSimdLevel()));
  std::fprintf(f, "  \"threads_resolved\": %d,\n  \"kernels\": [\n", hw);

  std::vector<std::pair<int32_t, int32_t>> scales;
  scales.push_back({800, 600});
  if (!fast) scales.push_back({3000, 1500});
  if (!fast && full) scales.push_back({12000, 6000});

  bool first_row = true;
  for (const auto& [users, items] : scales) {
    std::fprintf(stderr, "-- scale %dx%d\n", users, items);
    const ScaleInputs s = BuildScale(users, items);

    auto heap = std::make_shared<retrieval::TopKScorer>(*s.ie);
    retrieval::MipsIndexConfig icfg;
    // ~125 items per cluster keeps the per-cluster scan short; below 12
    // clusters the direction buckets get too coarse to prune.
    icfg.num_clusters = std::max(12, items / 125);
    Stopwatch build_sw;
    auto pruned = std::make_shared<retrieval::MipsIndex>(
        retrieval::MipsIndex::Build(*s.ie, icfg));
    const double pruned_build = build_sw.ElapsedSeconds();

    // Correctness axes, all untimed at one thread: the dense lists are the
    // oracle; heap must reproduce them exactly (and match metrics bit for
    // bit); the pruned engine's list overlap is the gated recall.
    SetNumThreads(1);
    std::vector<retrieval::TopKList> oracle, heap_lists, pruned_lists;
    DenseServe(s, kServeK, &oracle);
    RetrieverServe(s, *heap, kServeK, &heap_lists);
    RetrieverServe(s, *pruned, kServeK, &pruned_lists);
    if (!ListsIdentical(heap_lists, oracle)) {
      std::fclose(f);
      std::fprintf(stderr, "heap lists deviate from the dense oracle\n");
      return 1;
    }
    const double pruned_recall = MeanRecallVsOracle(pruned_lists, oracle);

    const Evaluator::ScoreFn dense_scorer =
        [&s](const std::vector<int32_t>& batch) {
          Matrix q = GatherRows(*s.ue, batch);
          Matrix scores;
          Gemm(q, false, *s.ie, true, 1.f, 0.f, &scores);
          return scores;
        };
    const Matrix dense_ref = MetricsMatrix(s.evaluator->Evaluate(dense_scorer));
    const Matrix heap_ref =
        MetricsMatrix(s.evaluator->EvaluateRetrieval(*heap, *s.ue));
    const Matrix pruned_ref =
        MetricsMatrix(s.evaluator->EvaluateRetrieval(*pruned, *s.ue));
    const bool heap_exact = MetricsExactlyEqual(heap_ref, dense_ref);
    if (!heap_exact) {
      std::fclose(f);
      std::fprintf(stderr, "heap metrics deviate from the dense oracle\n");
      return 1;
    }

    std::vector<ModeRow> rows;
    rows.push_back(
        {"topk_dense", [&](std::vector<retrieval::TopKList>* out) {
           DenseServe(s, kServeK, out);
         }});
    rows.push_back({"topk_heap",
                    [&](std::vector<retrieval::TopKList>* out) {
                      RetrieverServe(s, *heap, kServeK, out);
                    },
                    MeanRecallVsOracle(heap_lists, oracle), 1});
    rows.push_back({"topk_pruned",
                    [&](std::vector<retrieval::TopKList>* out) {
                      RetrieverServe(s, *pruned, kServeK, out);
                    },
                    pruned_recall,
                    MetricsExactlyEqual(pruned_ref, dense_ref) ? 1 : 0,
                    pruned_build});

    std::vector<double> dense_best(counts.size(), 1e300);
    for (size_t mi = 0; mi < rows.size(); ++mi) {
      const ModeRow& row = rows[mi];
      std::fprintf(stderr, "   %s/%s\n", row.name.c_str(), s.shape.c_str());
      // Warmup at every thread count doubles as the determinism check:
      // the served lists must be bitwise identical at any width.
      std::vector<retrieval::TopKList> reference;
      std::vector<bool> bitwise_ok(counts.size(), true);
      for (size_t ti = 0; ti < counts.size(); ++ti) {
        SetNumThreads(counts[ti]);
        std::vector<retrieval::TopKList> lists;
        row.serve(&lists);
        if (ti == 0) {
          reference = std::move(lists);
        } else {
          bitwise_ok[ti] = ListsIdentical(reference, lists);
        }
      }
      // Interleaved timed reps (rep 0 at every width, then rep 1, ...) so
      // machine-wide drift biases every width equally.
      std::vector<double> best(counts.size(), 1e300);
      std::vector<retrieval::TopKList> scratch;
      for (int r = 0; r < reps; ++r) {
        for (size_t ti = 0; ti < counts.size(); ++ti) {
          SetNumThreads(counts[ti]);
          Stopwatch sw;
          row.serve(&scratch);
          const double seconds = sw.ElapsedSeconds();
          best[ti] = std::min(best[ti], seconds);
        }
      }
      if (row.name == "topk_dense") dense_best = best;

      std::fprintf(f, "%s    {\"name\": \"%s/%s\", \"shape\": \"%s\",\n",
                   first_row ? "" : ",\n", row.name.c_str(), s.shape.c_str(),
                   s.shape.c_str());
      first_row = false;
      if (row.build_seconds >= 0) {
        std::fprintf(f, "     \"build_seconds\": %.6g,\n", row.build_seconds);
      }
      std::fprintf(f, "     \"runs\": [\n");
      for (size_t ti = 0; ti < counts.size(); ++ti) {
        std::string extras;
        char buf[128];
        if (row.name != "topk_dense") {
          std::snprintf(buf, sizeof(buf), ", \"speedup_vs_dense\": %.4g",
                        dense_best[ti] / best[ti]);
          extras += buf;
        }
        if (row.recall >= 0) {
          std::snprintf(buf, sizeof(buf), ", \"recall\": %.6g", row.recall);
          extras += buf;
        }
        if (row.exact_match >= 0) {
          std::snprintf(buf, sizeof(buf), ", \"exact_match\": %s",
                        row.exact_match == 1 ? "true" : "false");
          extras += buf;
        }
        std::fprintf(
            f,
            "      {\"threads\": %d, \"seconds\": %.6g, \"speedup_vs_1\": "
            "%.4g%s, \"bitwise_equal_to_serial\": %s}%s\n",
            counts[ti], best[ti], best[0] / best[ti], extras.c_str(),
            bitwise_ok[ti] ? "true" : "false",
            ti + 1 < counts.size() ? "," : "");
        std::fprintf(
            stderr, "    threads=%d  %.4fs  vs_dense=%.2fx  %s\n", counts[ti],
            best[ti],
            row.name == "topk_dense" ? 1.0 : dense_best[ti] / best[ti],
            bitwise_ok[ti] ? "bitwise-ok" : "MISMATCH");
        if (!bitwise_ok[ti]) {
          std::fclose(f);
          std::fprintf(stderr, "determinism violation in %s\n",
                       row.name.c_str());
          return 1;
        }
      }
      std::fprintf(f, "    ]}");
      if (row.recall >= 0) {
        std::fprintf(stderr, "    recall@20=%.4f exact_match=%s\n",
                     row.recall, row.exact_match == 1 ? "true" : "false");
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  SetNumThreads(0);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace graphaug

int main(int argc, char** argv) {
  graphaug::FlagParser flags(argc, argv);
  if (flags.Has("threads")) {
    graphaug::SetNumThreads(flags.GetInt32("threads", 0));
  }
  return graphaug::RunBench(flags);
}
