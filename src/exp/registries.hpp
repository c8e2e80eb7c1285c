// The concrete experiment registries (DESIGN.md §7): models, workloads,
// schedulers, and wire codecs. The method registry lives in exp/runner.hpp
// (its factories produce live training runs and need the built Setup); its
// name list is re-exported here so the spec schema can validate `method`
// without depending on the runner's types.
#pragma once

#include <functional>
#include <memory>

#include "comm/codec.hpp"
#include "data/synthetic.hpp"
#include "exp/registry.hpp"
#include "exp/spec.hpp"
#include "sysmodel/layer_spec.hpp"

namespace fp::exp {

// ---- models -----------------------------------------------------------------

struct ModelParams {
  std::int64_t image = 16;
  std::int64_t classes = 10;
  std::int64_t width = 6;  ///< tiny-model width multiplier (paper shapes ignore)
};

using ModelFactory = std::function<sys::ModelSpec(const ModelParams&)>;

/// tiny_vgg / tiny_resnet / tiny_cnn (trainable) and the paper-exact analytic
/// shapes vgg16/13/11, cnn3, resnet34/18/10, cnn4.
Registry<ModelFactory>& model_registry();

// ---- workloads --------------------------------------------------------------

struct WorkloadInfo {
  std::string display_name;       ///< "CIFAR-10 (synthetic)"
  bool cifar_pool = true;         ///< device pool (Table 5 vs Table 6)
  std::uint64_t seed_offset = 0;  ///< bench seed = 1234 + offset (+1 unbalanced)
  std::int64_t default_train_size = 0;
  std::string default_model;      ///< trainable backbone registry key
  std::int64_t kd_mid_width = 0;  ///< width of the middle KD-family member
  std::function<data::SyntheticConfig()> synth;
  std::function<sys::ModelSpec()> paper_spec;  ///< cost-model shape
  std::int64_t paper_batch = 64;
};

Registry<WorkloadInfo>& workload_registry();

// ---- schedulers / codecs ----------------------------------------------------

Registry<fed::SchedulerKind>& scheduler_registry();

/// Registry name of a scheduler kind ("sync" / "async").
std::string scheduler_key(fed::SchedulerKind kind);

struct CodecEntry {
  comm::CodecKind kind = comm::CodecKind::kIdentity;
  /// Builds the codec exactly as the round engine's channel would, from the
  /// resolved comm.* keys.
  std::function<std::unique_ptr<comm::BlobCodec>(const comm::CommConfig&)> make;
};

Registry<CodecEntry>& codec_registry();

/// Registry name of a codec kind ("identity" / "fp16" / "int8" / "topk").
std::string codec_key(comm::CodecKind kind);

// ---- method names (registry defined in exp/runner.hpp) ----------------------

const std::vector<std::string>& method_names();

// ---- resolution -------------------------------------------------------------

/// Replaces every auto/sentinel field with its concrete derived value:
/// workload defaults (model, classes, train size), the bench seed formula,
/// FP_BENCH_FAST scaling of sizes/rounds, and the jFAT-vs-others round count.
/// Validates registry-backed names and the ranges of fl.batch_size,
/// model.width, fl.pgd_steps and fl.clients_per_round (a SpecError names the
/// key). Idempotent; a resolved spec serializes to a config that reproduces
/// the run under any environment.
void resolve_spec(ExperimentSpec& spec, bool fast);
void resolve_spec(ExperimentSpec& spec);  ///< fast = fast_mode()

}  // namespace fp::exp
