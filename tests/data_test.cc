// Tests for the data pipeline: synthetic generator statistical
// properties, preset density ordering, train/test splitting, TSV
// round-trips and malformed-file errors, BPR sampling validity, and
// dataset statistics.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "data/dataset.h"
#include "data/io.h"
#include "data/sampler.h"
#include "data/stats.h"
#include "data/synthetic.h"

namespace graphaug {
namespace {

TEST(SplitTest, LeaveOutKeepsAtLeastOneTrainPerUser) {
  std::vector<Edge> edges;
  for (int32_t u = 0; u < 20; ++u) {
    for (int32_t v = 0; v <= u % 4; ++v) edges.push_back({u, v});
  }
  Rng rng(1);
  std::vector<Edge> train, test;
  SplitLeaveOut(edges, 0.5, &rng, &train, &test);
  EXPECT_EQ(train.size() + test.size(), edges.size());
  std::vector<int> train_count(20, 0);
  for (const Edge& e : train) train_count[e.user]++;
  for (int32_t u = 0; u < 20; ++u) EXPECT_GE(train_count[u], 1);
}

TEST(SplitTest, FractionRoughlyRespected) {
  std::vector<Edge> edges;
  for (int32_t u = 0; u < 50; ++u) {
    for (int32_t v = 0; v < 20; ++v) edges.push_back({u, v});
  }
  Rng rng(2);
  std::vector<Edge> train, test;
  SplitLeaveOut(edges, 0.25, &rng, &train, &test);
  EXPECT_EQ(test.size(), 50u * 5u);  // exactly 25% per user here
}

TEST(SyntheticTest, GeneratesValidDataset) {
  SyntheticData data = GeneratePreset("tiny");
  const Dataset& d = data.dataset;
  EXPECT_EQ(d.num_users, 60);
  EXPECT_EQ(d.num_items, 50);
  EXPECT_GT(d.train_edges.size(), 100u);
  EXPECT_GT(d.test_edges.size(), 20u);
  EXPECT_EQ(d.noise_flags.size(), d.train_edges.size());
  for (const Edge& e : d.train_edges) {
    EXPECT_GE(e.user, 0);
    EXPECT_LT(e.user, d.num_users);
    EXPECT_GE(e.item, 0);
    EXPECT_LT(e.item, d.num_items);
  }
  // Ground truth factors exist for the case study.
  EXPECT_EQ(data.user_factors.rows(), d.num_users);
  EXPECT_EQ(data.item_community.size(), static_cast<size_t>(d.num_items));
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  SyntheticData a = GeneratePreset("tiny");
  SyntheticData b = GeneratePreset("tiny");
  ASSERT_EQ(a.dataset.train_edges.size(), b.dataset.train_edges.size());
  for (size_t i = 0; i < a.dataset.train_edges.size(); ++i) {
    EXPECT_TRUE(a.dataset.train_edges[i] == b.dataset.train_edges[i]);
  }
  SyntheticData c = GeneratePreset("tiny", /*seed=*/999);
  EXPECT_NE(a.dataset.train_edges.size(), 0u);
  // Different seed should produce a different edge set (overwhelmingly).
  bool any_diff = a.dataset.train_edges.size() != c.dataset.train_edges.size();
  if (!any_diff) {
    for (size_t i = 0; i < a.dataset.train_edges.size(); ++i) {
      if (!(a.dataset.train_edges[i] == c.dataset.train_edges[i])) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, NoiseFractionApproximatelyRespected) {
  SyntheticConfig cfg = PresetConfig("tiny");
  cfg.num_users = 300;
  cfg.num_items = 200;
  cfg.mean_user_degree = 10;
  cfg.noise_fraction = 0.2;
  SyntheticData data = GenerateSynthetic(cfg);
  int64_t noisy = 0;
  for (bool f : data.dataset.noise_flags) noisy += f;
  const double frac =
      static_cast<double>(noisy) / data.dataset.noise_flags.size();
  // Train keeps all noise but only ~80% of aligned edges, so the observed
  // fraction is a bit above the generative rate.
  EXPECT_GT(frac, 0.12);
  EXPECT_LT(frac, 0.40);
}

TEST(SyntheticTest, PresetDensityOrderingMatchesPaper) {
  // Table I: Gowalla is the densest; Retail Rocket and Amazon are sparse.
  DatasetStats gowalla =
      ComputeStats(GeneratePreset("gowalla-sim").dataset);
  DatasetStats rr =
      ComputeStats(GeneratePreset("retailrocket-sim").dataset);
  DatasetStats amazon = ComputeStats(GeneratePreset("amazon-sim").dataset);
  EXPECT_GT(gowalla.density, rr.density);
  EXPECT_GT(gowalla.density, amazon.density);
  EXPECT_GT(gowalla.mean_user_degree, rr.mean_user_degree);
}

TEST(SyntheticTest, PowerLawSkewPresent) {
  DatasetStats s = ComputeStats(GeneratePreset("gowalla-sim").dataset);
  // Long-tail item popularity: Gini well above uniform.
  EXPECT_GT(s.gini_item_popularity, 0.3);
  EXPECT_GT(s.max_user_degree, 3 * s.mean_user_degree);
}

TEST(IoTest, TsvRoundTrip) {
  SyntheticData data = GeneratePreset("tiny");
  const std::string path = "/tmp/graphaug_io_test.tsv";
  ASSERT_TRUE(SaveDatasetTsv(data.dataset, path));
  Dataset loaded;
  ASSERT_TRUE(LoadDatasetTsv(path, &loaded));
  EXPECT_EQ(loaded.name, data.dataset.name);
  EXPECT_EQ(loaded.num_users, data.dataset.num_users);
  EXPECT_EQ(loaded.num_items, data.dataset.num_items);
  ASSERT_EQ(loaded.train_edges.size(), data.dataset.train_edges.size());
  ASSERT_EQ(loaded.test_edges.size(), data.dataset.test_edges.size());
  for (size_t i = 0; i < loaded.train_edges.size(); ++i) {
    EXPECT_TRUE(loaded.train_edges[i] == data.dataset.train_edges[i]);
    EXPECT_EQ(loaded.noise_flags[i], data.dataset.noise_flags[i]);
  }
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileReturnsFalse) {
  Dataset d;
  EXPECT_FALSE(LoadDatasetTsv("/nonexistent/nope.tsv", &d));
  std::string error;
  EXPECT_FALSE(LoadDatasetTsv("/nonexistent/nope.tsv", &d, &error));
  EXPECT_EQ(error, "/nonexistent/nope.tsv: cannot open");
}

/// Writes `content` to a temporary TSV and returns its path.
std::string WriteTsv(const std::string& name, const std::string& content) {
  const std::string path = "/tmp/graphaug_io_test_" + name + ".tsv";
  std::ofstream(path, std::ios::binary) << content;
  return path;
}

TEST(IoTest, MalformedRowsAndHeadersFailWithPathLineAndReason) {
  const std::string head = "#users\t3\n#items\t4\n";
  struct Case {
    const char* name;
    std::string content;
    const char* want;  // expected error after "<path>"
  };
  const Case cases[] = {
      {"short_row", head + "0\t1\n", ":3: short row"},
      {"garbage_user", head + "zero\t1\ttrain\n", ":3: user id 'zero'"},
      {"garbage_item", head + "0\t1x\ttrain\n", ":3: item id '1x'"},
      {"exponent_id", head + "1e2\t1\ttrain\n", ":3: user id '1e2'"},
      {"negative_user", head + "-1\t1\ttrain\n",
       ":3: user id '-1' is not an integer in [0, 3)"},
      {"user_at_count", head + "3\t1\ttrain\n",
       ":3: user id '3' is not an integer in [0, 3)"},
      {"item_past_count", head + "0\t1\ttrain\n2\t9\ttest\n",
       ":4: item id '9' is not an integer in [0, 4)"},
      {"overflowing_id", head + "99999999999\t1\ttrain\n",
       ":3: user id '99999999999'"},
      {"bad_split", head + "0\t1\tvalid\n", ":3: bad split tag 'valid'"},
      {"bad_flag", head + "0\t1\ttrain\tyes\n", ":3: bad noise flag 'yes'"},
      {"header_no_value", "#users\n#items\t4\n", ":1: bad header '#users'"},
      {"header_garbage", "#users\tmany\n", ":1: bad #users count 'many'"},
      {"header_negative", "#items\t-4\n", ":1: bad #items count '-4'"},
      {"row_before_header", "0\t1\ttrain\n" + head,
       ":1: row before the #users and #items headers"},
      {"no_headers", "#name\tx\n", ": missing #users or #items header"},
      {"no_train_rows", head + "0\t1\ttest\n", ": no train rows"},
      {"binary_field", head + std::string("0\t1\ttr\x01\xff\n"),
       ":3: bad split tag 'tr??'"},
  };
  for (const Case& c : cases) {
    const std::string path = WriteTsv(c.name, c.content);
    Dataset d;
    std::string error;
    EXPECT_FALSE(LoadDatasetTsv(path, &d, &error)) << c.name;
    EXPECT_EQ(error.rfind(path + c.want, 0), 0u)
        << c.name << ": got '" << error << "'";
    EXPECT_EQ(error.find('\n'), std::string::npos) << c.name;
    EXPECT_FALSE(LoadDatasetTsv(path, &d)) << c.name;  // no error sink
    std::remove(path.c_str());
  }
}

TEST(IoTest, TruncatedFileLoadsOrFailsWithOneLine) {
  // Cut a saved dataset at many byte offsets: each prefix either loads
  // (cut at a row boundary or inside the optional noise flag) with
  // in-range ids, or fails with a "<path>:<line>:" reason.
  std::ostringstream full_stream;
  {
    const std::string path = "/tmp/graphaug_io_test_full.tsv";
    ASSERT_TRUE(SaveDatasetTsv(GeneratePreset("tiny").dataset, path));
    full_stream << std::ifstream(path).rdbuf();
    std::remove(path.c_str());
  }
  const std::string full = full_stream.str();
  int loaded = 0;
  int failed = 0;
  for (size_t cut = 0; cut < full.size(); cut += 37) {
    const std::string path = WriteTsv("truncated", full.substr(0, cut));
    Dataset d;
    std::string error;
    if (LoadDatasetTsv(path, &d, &error)) {
      ++loaded;
      for (const Edge& e : d.train_edges) {
        EXPECT_LT(e.user, d.num_users);
        EXPECT_LT(e.item, d.num_items);
      }
    } else {
      ++failed;
      EXPECT_EQ(error.rfind(path + ":", 0), 0u) << "cut " << cut;
      EXPECT_EQ(error.find('\n'), std::string::npos) << "cut " << cut;
    }
    std::remove(path.c_str());
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(failed, 0);
}

TEST(IoTest, RandomBytesFailWithoutAborting) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    std::string bytes(512 + 97 * trial, '\0');
    for (char& b : bytes) b = static_cast<char>(rng.UniformInt(256));
    const std::string path = WriteTsv("random", bytes);
    Dataset d;
    std::string error;
    EXPECT_FALSE(LoadDatasetTsv(path, &d, &error)) << "trial " << trial;
    EXPECT_EQ(error.rfind(path + ":", 0), 0u) << "trial " << trial;
    std::remove(path.c_str());
  }
}

TEST(SamplerTest, TripletsAreValid) {
  SyntheticData data = GeneratePreset("tiny");
  BipartiteGraph g = data.dataset.TrainGraph();
  TripletSampler sampler(&g);
  Rng rng(3);
  TripletBatch batch = sampler.Sample(500, &rng);
  EXPECT_GT(batch.size(), 450u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(batch.users[i], batch.pos_items[i]));
    EXPECT_FALSE(g.HasEdge(batch.users[i], batch.neg_items[i]));
  }
}

TEST(SamplerTest, DistinctNodeBatches) {
  SyntheticData data = GeneratePreset("tiny");
  BipartiteGraph g = data.dataset.TrainGraph();
  TripletSampler sampler(&g);
  Rng rng(4);
  std::vector<int32_t> users = sampler.SampleUsers(30, &rng);
  EXPECT_EQ(std::set<int32_t>(users.begin(), users.end()).size(), 30u);
  // Requesting more than the universe returns everyone.
  std::vector<int32_t> all = sampler.SampleUsers(10000, &rng);
  EXPECT_EQ(all.size(), static_cast<size_t>(g.num_users()));
}

TEST(StatsTest, GroupUsersByDegree) {
  Dataset d;
  d.num_users = 5;
  d.num_items = 60;
  // Degrees: 2, 12, 25, 37, 49.
  for (int32_t u = 0; u < 5; ++u) {
    const int deg[] = {2, 12, 25, 37, 49};
    for (int32_t v = 0; v < deg[u]; ++v) d.train_edges.push_back({u, v});
  }
  auto groups = GroupUsersByDegree(d, {0, 10, 20, 30, 40, 50});
  ASSERT_EQ(groups.size(), 5u);
  for (size_t g = 0; g < 5; ++g) {
    ASSERT_EQ(groups[g].size(), 1u);
    EXPECT_EQ(groups[g][0], static_cast<int32_t>(g));
  }
  auto labels = GroupLabels({0, 10, 20});
  EXPECT_EQ(labels[0], "0-10");
  EXPECT_EQ(labels[1], "10-20");
}

TEST(StatsTest, ComputeStatsBasics) {
  Dataset d;
  d.num_users = 2;
  d.num_items = 4;
  d.train_edges = {{0, 0}, {0, 1}, {1, 0}};
  d.test_edges = {{0, 2}};
  DatasetStats s = ComputeStats(d);
  EXPECT_EQ(s.num_train, 3);
  EXPECT_EQ(s.num_test, 1);
  EXPECT_DOUBLE_EQ(s.density, 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.mean_user_degree, 1.5);
  EXPECT_DOUBLE_EQ(s.max_user_degree, 2.0);
}

}  // namespace
}  // namespace graphaug
