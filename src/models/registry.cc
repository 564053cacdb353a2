#include "models/registry.h"

#include "core/graphaug.h"
#include "models/autorec.h"
#include "models/contrastive_ssl.h"
#include "models/disentangled.h"
#include "models/generative_ssl.h"
#include "models/gnn_models.h"
#include "models/mf_models.h"

namespace graphaug {

std::unique_ptr<Recommender> CreateModel(const std::string& name,
                                         const Dataset* dataset,
                                         const ModelConfig& config) {
  if (name == "BiasMF") return std::make_unique<BiasMf>(dataset, config);
  if (name == "NCF") return std::make_unique<Ncf>(dataset, config);
  if (name == "AutoR") return std::make_unique<AutoRec>(dataset, config);
  if (name == "GCMC") {
    return std::make_unique<GnnRecommender>(dataset, config, GnnStyle::kGcmc);
  }
  if (name == "PinSage") {
    return std::make_unique<GnnRecommender>(dataset, config,
                                            GnnStyle::kPinSage);
  }
  if (name == "NGCF") {
    return std::make_unique<GnnRecommender>(dataset, config, GnnStyle::kNgcf);
  }
  if (name == "LightGCN") {
    return std::make_unique<GnnRecommender>(dataset, config,
                                            GnnStyle::kLightGcn);
  }
  if (name == "GCCF") {
    return std::make_unique<GnnRecommender>(dataset, config, GnnStyle::kGccf);
  }
  if (name == "DisenGCN") return MakeDisenGcn(dataset, config);
  if (name == "DGCF") return MakeDgcf(dataset, config);
  if (name == "DGCL") return MakeDgcl(dataset, config);
  if (name == "MHCN") return std::make_unique<Mhcn>(dataset, config);
  if (name == "STGCN") return std::make_unique<Stgcn>(dataset, config);
  if (name == "SLRec") return std::make_unique<SlRec>(dataset, config);
  if (name == "SGL") return std::make_unique<Sgl>(dataset, config);
  if (name == "HCCF") return std::make_unique<Hccf>(dataset, config);
  if (name == "CGI") return std::make_unique<Cgi>(dataset, config);
  if (name == "NCL") return std::make_unique<Ncl>(dataset, config);
  if (name == "GraphAug") {
    GraphAugConfig gconfig;
    static_cast<ModelConfig&>(gconfig) = config;
    return std::make_unique<GraphAug>(dataset, gconfig);
  }
  GA_CHECK(false) << "unknown model: " << name;
  return nullptr;
}

std::vector<std::string> AllModelNames() {
  return {"BiasMF", "NCF",  "AutoR",    "GCMC", "PinSage", "NGCF", "LightGCN",
          "GCCF",   "DisenGCN", "DGCF", "MHCN", "STGCN",   "SLRec", "SGL",
          "DGCL",   "HCCF", "CGI",      "NCL",  "GraphAug"};
}

std::unique_ptr<GraphAugmenter> CreateAugmenter(const std::string& name,
                                                AugmentorConfig config) {
  config.name = name;
  return MakeAugmenter(config);
}

std::vector<std::string> AllAugmenterNames() { return AugmenterNames(); }

}  // namespace graphaug
