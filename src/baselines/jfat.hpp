// jFAT (Zizzo et al. 2020): joint federated adversarial training.
// Every client adversarially trains the whole model end-to-end and FedAvg
// aggregates. On memory-constrained devices this is the method that pays the
// memory-swapping latency (paper Figs. 2/7).
#pragma once

#include "baselines/local_at.hpp"
#include "fed/algorithm.hpp"
#include "fed/client_pool.hpp"

namespace fp::baselines {

struct JFatConfig {
  fed::FlConfig fl;
  sys::ModelSpec model_spec;
  bool adversarial = true;  ///< false gives plain FedAvg (diagnostics)
};

class JFat final : public fed::FederatedAlgorithm {
 public:
  JFat(fed::FedEnv& env, JFatConfig cfg);

  std::string name() const override { return adversarial_ ? "jFAT" : "FedAvg"; }
  models::BuiltModel& global_model() override { return model_; }

 private:
  // RoundEngine hooks: broadcast the full model, adversarially train it end
  // to end on each client, FedAvg the uploaded blobs.
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  // Distributed-runtime hooks (DESIGN.md §10): round state = the lr; the
  // broadcast and upload blobs travel on the channel's wire tapes.
  bool net_capable() const override { return true; }
  void net_save_round(comm::FrameWriter& out) const override;
  void net_load_round(comm::FrameReader& in,
                      const std::vector<fed::TaskSpec>& owned,
                      std::vector<nn::ParamBlob> broadcast,
                      std::int64_t broadcast_bytes) override;
  void net_end_group() override;
  void net_assemble_upload(const fed::TaskSpec& task,
                           const std::vector<comm::WireMessage>& tape,
                           fed::Upload& up) override;

  /// Local-training settings of a round at learning rate `lr`.
  void configure_round(float lr);

  Rng init_rng_;  ///< seeds weight init (deterministic per cfg.fl.seed)
  models::BuiltModel model_;
  bool adversarial_;
  fed::ClientPool clients_;

  // Dispatch/aggregation state owned by the engine pipeline.
  nn::ParamBlob broadcast_;            ///< as decoded by clients (wire codec)
  std::int64_t broadcast_bytes_ = 0;   ///< wire size of one broadcast download
  LocalAtConfig at_;
  nn::SgdConfig round_sgd_;
  fed::BlobAverager averager_;
};

}  // namespace fp::baselines
