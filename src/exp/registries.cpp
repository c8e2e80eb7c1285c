#include "exp/registries.hpp"

#include "models/zoo.hpp"

namespace fp::exp {

namespace {

ModelFactory tiny(models::ModelSpec (*fn)(std::int64_t, std::int64_t,
                                          std::int64_t)) {
  return [fn](const ModelParams& p) { return fn(p.image, p.classes, p.width); };
}

ModelFactory paper(models::ModelSpec (*fn)(std::int64_t, std::int64_t)) {
  return [fn](const ModelParams& p) { return fn(p.image, p.classes); };
}

}  // namespace

Registry<ModelFactory>& model_registry() {
  static Registry<ModelFactory> reg = [] {
    Registry<ModelFactory> r("model");
    r.add("tiny_vgg", tiny(models::tiny_vgg_spec),
          "trainable plain VGG-style net (BatchNorm, 9 atoms)");
    r.add("tiny_resnet", tiny(models::tiny_resnet_spec),
          "trainable residual net (stem + 5 basic blocks)");
    r.add("tiny_cnn", tiny(models::tiny_cnn_spec),
          "trainable 2-conv 'small model' baseline");
    r.add("vgg16", paper(models::vgg16_spec), "paper-exact VGG16 (analytic)");
    r.add("vgg13", paper(models::vgg13_spec), "paper-exact VGG13 (analytic)");
    r.add("vgg11", paper(models::vgg11_spec), "paper-exact VGG11 (analytic)");
    r.add("cnn3", paper(models::cnn3_spec), "paper small CIFAR CNN (analytic)");
    r.add("resnet34", paper(models::resnet34_spec),
          "paper-exact ResNet34 (analytic)");
    r.add("resnet18", paper(models::resnet18_spec),
          "paper-exact ResNet18 (analytic)");
    r.add("resnet10", paper(models::resnet10_spec),
          "paper-exact ResNet10 (analytic)");
    r.add("cnn4", paper(models::cnn4_spec),
          "paper small Caltech CNN (analytic)");
    return r;
  }();
  return reg;
}

Registry<WorkloadInfo>& workload_registry() {
  static Registry<WorkloadInfo> reg = [] {
    Registry<WorkloadInfo> r("workload");
    WorkloadInfo cifar;
    cifar.display_name = "CIFAR-10 (synthetic)";
    cifar.cifar_pool = true;
    cifar.seed_offset = 0;
    cifar.default_train_size = 1600;
    cifar.default_model = "tiny_vgg";
    cifar.kd_mid_width = 4;
    cifar.synth = data::synth_cifar_config;
    cifar.paper_spec = [] { return models::vgg16_spec(32, 10); };
    cifar.paper_batch = 64;
    r.add("cifar", cifar, "CIFAR-10 stand-in on the Table 5 device pool");

    WorkloadInfo caltech;
    caltech.display_name = "Caltech-256 (synthetic)";
    caltech.cifar_pool = false;
    caltech.seed_offset = 77;
    caltech.default_train_size = 1280;
    caltech.default_model = "tiny_resnet";
    caltech.kd_mid_width = 5;
    caltech.synth = data::synth_caltech_config;
    caltech.paper_spec = [] { return models::resnet34_spec(224, 256); };
    caltech.paper_batch = 32;
    r.add("caltech", caltech, "Caltech-256 stand-in on the Table 6 device pool");
    return r;
  }();
  return reg;
}

Registry<fed::SchedulerKind>& scheduler_registry() {
  static Registry<fed::SchedulerKind> reg = [] {
    Registry<fed::SchedulerKind> r("scheduler");
    r.add("sync", fed::SchedulerKind::kSync,
          "barrier rounds, bit-identical to the historical loops");
    r.add("async", fed::SchedulerKind::kAsync,
          "event-driven FedAsync-style replay of device latencies");
    return r;
  }();
  return reg;
}

std::string scheduler_key(fed::SchedulerKind kind) {
  for (const auto& name : scheduler_registry().names())
    if (scheduler_registry().resolve(name) == kind) return name;
  throw SpecError("unnamed scheduler kind");
}

Registry<CodecEntry>& codec_registry() {
  static Registry<CodecEntry> reg = [] {
    auto entry = [](comm::CodecKind kind) {
      CodecEntry e;
      e.kind = kind;
      e.make = [kind](const comm::CommConfig& cfg) {
        comm::CommConfig with_kind = cfg;
        with_kind.codec = kind;
        return comm::make_codec(with_kind);
      };
      return e;
    };
    Registry<CodecEntry> r("codec");
    r.add("identity", entry(comm::CodecKind::kIdentity),
          "dense fp32, bit-identical round-trip (default)");
    r.add("fp16", entry(comm::CodecKind::kFp16),
          "IEEE half precision, round-to-nearest-even");
    r.add("int8", entry(comm::CodecKind::kInt8),
          "per-tensor affine 8-bit quantization");
    r.add("topk", entry(comm::CodecKind::kTopK),
          "magnitude sparsification, exact kept coordinates");
    return r;
  }();
  return reg;
}

std::string codec_key(comm::CodecKind kind) {
  for (const auto& name : codec_registry().names())
    if (codec_registry().resolve(name).kind == kind) return name;
  throw SpecError("unnamed codec kind");
}

void resolve_spec(ExperimentSpec& spec, bool fast) {
  const WorkloadInfo& wl = workload_registry().resolve(spec.workload);
  if (spec.heterogeneity != "balanced" && spec.heterogeneity != "unbalanced")
    throw SpecError(unknown_name_message("heterogeneity", spec.heterogeneity,
                                         {"balanced", "unbalanced"}));
  if (spec.model == "auto") spec.model = wl.default_model;
  model_registry().resolve(spec.model);
  if (spec.model_classes == 0) spec.model_classes = wl.synth().num_classes;
  if (spec.train_size == 0)
    spec.train_size = scaled(wl.default_train_size, fast);
  if (spec.fl.local_iters < 0) spec.fl.local_iters = fast ? 2 : 4;
  if (spec.fl.rounds == 0)
    spec.fl.rounds = scaled(spec.method == "jFAT" ? 12 : 16, fast);
  if (spec.fl.seed == 0)
    spec.fl.seed = 1234 + wl.seed_offset +
                   static_cast<std::uint64_t>(spec.heterogeneity == "unbalanced");
  if (spec.eval_max_samples == 0) spec.eval_max_samples = scaled(128, fast);
  if (spec.fp_rounds_per_module == 0)
    spec.fp_rounds_per_module = scaled(5, fast) + 1;
  // With the memory plane off the pricing scale is inert: pin the neutral
  // value here so resolution alone is canonical. When the plane is active the
  // auto value needs the built model family and is filled by build_setup.
  if (spec.fl.mem.device_mem_scale <= 0 && !spec.fl.mem.active())
    spec.fl.mem.device_mem_scale = 1.0;

  // Ranges no component can run with: reject them here, naming the key,
  // instead of crashing (or silently misbehaving) deep inside a run.
  const auto require = [](bool ok, const char* key, const std::string& want,
                          std::int64_t got) {
    if (!ok)
      throw SpecError(std::string(key) + " must be " + want + " (got " +
                      std::to_string(got) + ")");
  };
  require(spec.fl.batch_size >= 1, "fl.batch_size", ">= 1", spec.fl.batch_size);
  require(spec.model_width >= 1, "model.width", ">= 1", spec.model_width);
  require(spec.fl.pgd_steps >= 0, "fl.pgd_steps", ">= 0", spec.fl.pgd_steps);
  require(spec.fl.clients_per_round <= spec.fl.num_clients,
          "fl.clients_per_round",
          "<= fl.num_clients = " + std::to_string(spec.fl.num_clients),
          spec.fl.clients_per_round);
}

void resolve_spec(ExperimentSpec& spec) { resolve_spec(spec, fast_mode()); }

}  // namespace fp::exp
