#include "baselines/jfat.hpp"

#include "fed/budget_exec.hpp"

namespace fp::baselines {

JFat::JFat(fed::FedEnv& env, JFatConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      init_rng_(cfg.fl.seed ^ 0x1fa7),
      model_(std::move(cfg.model_spec), init_rng_),
      adversarial_(cfg.adversarial),
      clients_(env, cfg.fl.seed) {}

void JFat::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  // The snapshot survives across dispatch groups until finalize_round
  // changes the model (async dropout/straggler refills reuse it). Clients
  // train from the blob as the wire codec delivers it.
  if (broadcast_.empty()) {
    broadcast_bytes_ = 0;
    broadcast_ =
        engine().channel().downlink(model_.save_all(), &broadcast_bytes_);
  }
  configure_round(tasks.empty() ? cfg_.sgd.lr : tasks.front().lr);
}

void JFat::configure_round(float lr) {
  at_ = LocalAtConfig{};
  at_.epsilon = cfg_.epsilon0;
  at_.pgd_steps = adversarial_ ? cfg_.pgd_steps : 0;
  at_.adversarial = adversarial_;
  round_sgd_ = cfg_.sgd;
  round_sgd_.lr = lr;
}

fed::Upload JFat::train_client(const fed::TaskSpec& task) {
  Rng build_rng(0);  // replica init is overwritten by the broadcast blob
  models::BuiltModel local(model_.spec(), build_rng);
  local.load_all(broadcast_);

  fed::Upload up;
  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  up.work.pgd_steps = at_.pgd_steps;
  // Budget-aware execution (mem subsystem): whole-model adversarial training
  // is the method that overruns client memory, so plan the step's peak and
  // checkpoint when the bound budget demands it. jFAT is priced on the
  // paper-shape cost spec, hence the device_mem_scale mapping.
  fed::apply_budgeted_execution(model_.spec(), 0, local.num_atoms(),
                                cfg_.batch_size, /*with_aux_head=*/false,
                                at_.adversarial && at_.pgd_steps > 0,
                                /*aux_params_loaded=*/0, local,
                                engine().config().mem.device_mem_scale,
                                &up.work);

  nn::Sgd opt(local.parameters_range(0, local.num_atoms()),
              local.gradients_range(0, local.num_atoms()), round_sgd_);
  auto& batches = clients_.batches(task.client, cfg_.batch_size);
  for (std::int64_t it = 0; it < cfg_.local_iters; ++it)
    at_train_batch(local, opt, batches.next(), at_, clients_.rng(task.client));

  up.bytes_down = broadcast_bytes_;
  // Uplink through the engine's channel: the server aggregates the update as
  // the codec decodes it (delta codecs reference the broadcast both ends hold).
  up.payload =
      engine().channel().uplink(local.save_all(), &broadcast_, &up.bytes_up);
  return up;
}

// ---- Distributed-runtime hooks (DESIGN.md §10) ------------------------------

void JFat::net_save_round(comm::FrameWriter& out) const {
  out.f32(round_sgd_.lr);
}

void JFat::net_load_round(comm::FrameReader& in,
                          const std::vector<fed::TaskSpec>& owned,
                          std::vector<nn::ParamBlob> broadcast,
                          std::int64_t broadcast_bytes) {
  if (broadcast.size() != 1)
    throw comm::WireError("jFAT: expected 1 broadcast blob, got " +
                          std::to_string(broadcast.size()));
  // Pool bookkeeping over the OWNED tasks only: this worker's per-client
  // dispatch counts advance exactly as the single-process run's do.
  clients_.begin_round(owned);
  broadcast_ = std::move(broadcast.front());
  broadcast_bytes_ = broadcast_bytes;
  configure_round(in.f32());
}

void JFat::net_end_group() { clients_.end_round(); }

void JFat::net_assemble_upload(const fed::TaskSpec& /*task*/,
                               const std::vector<comm::WireMessage>& tape,
                               fed::Upload& up) {
  if (tape.size() != 1)
    throw comm::WireError("jFAT: expected 1 uplink message, got " +
                          std::to_string(tape.size()));
  up.payload = engine().channel().decode(tape.front(), &broadcast_);
}

void JFat::apply_update(const fed::TaskSpec& /*task*/, fed::Upload&& up,
                        fed::ApplyMode mode, float mix) {
  auto& blob = std::any_cast<nn::ParamBlob&>(up.payload);
  if (mode == fed::ApplyMode::kBlend) {
    averager_.add(model_.save_all(), 1.0f - mix);
    averager_.add(blob, mix);
  } else {
    averager_.add(blob, up.weight);
  }
}

void JFat::finalize_round(std::int64_t /*t*/) {
  clients_.end_round();
  // Re-snapshot every round, so each sync dispatch records its broadcast.
  broadcast_.clear();
  if (averager_.empty()) return;
  model_.load_all(averager_.average());
  averager_.reset();
}

}  // namespace fp::baselines
