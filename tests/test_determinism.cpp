// Bit-exact reproducibility of federated training across thread counts.
//
// The contract (core/parallel.hpp): per-client RNG streams, client-ordered
// server aggregation, and partition-independent kernel summation make a
// round's result a pure function of the seed — FP_NUM_THREADS must only
// change wall-clock, never a single bit of the aggregates. A task that
// throws inside the pool surfaces on the caller and leaves the pool usable.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/jfat.hpp"
#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"

namespace fp {
namespace {

data::TrainTest tiny_data() {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 240;
  dcfg.test_size = 80;
  dcfg.num_classes = 4;
  return data::make_synthetic(dcfg);
}

fed::FlConfig tiny_fl() {
  fed::FlConfig fl;
  fl.num_clients = 6;
  fl.clients_per_round = 3;
  fl.local_iters = 2;
  fl.batch_size = 16;
  fl.pgd_steps = 2;
  fl.rounds = 2;
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  return fl;
}

void expect_blobs_identical(const nn::ParamBlob& a, const nn::ParamBlob& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "aggregate diverged at element " << i;
}

TEST(Determinism, JFatRoundsBitIdenticalAcrossThreadCounts) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  nn::ParamBlob blobs[2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    fed::FedEnv env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    baselines::JFatConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    baselines::JFat algo(env, cfg);
    algo.run();
    blobs[run] = algo.global_model().save_all();
  }
  core::set_num_threads(1);
  expect_blobs_identical(blobs[0], blobs[1]);
}

TEST(Determinism, FedProphetTrainBitIdenticalAcrossThreadCounts) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  nn::ParamBlob blobs[2];
  std::vector<double> traces[2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    fed::FedEnv env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    fedprophet::FedProphetConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    const auto full = sys::module_train_mem_bytes(
        cfg.model_spec, 0, cfg.model_spec.atoms.size(), fl.batch_size, false);
    cfg.rmin_bytes = full / 3;
    cfg.rounds_per_module = 2;
    cfg.eval_every = 2;
    cfg.val_samples = 32;
    cfg.device_mem_scale =
        static_cast<double>(full) / (2.0 * static_cast<double>(1ull << 30));
    fedprophet::FedProphet algo(env, cfg);
    algo.train();
    blobs[run] = algo.global_model().save_all();
    traces[run] = algo.eps_trace();
  }
  core::set_num_threads(1);
  expect_blobs_identical(blobs[0], blobs[1]);
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "eps trace diverged at round " << i;
}

// ---- pool exception safety --------------------------------------------------

TEST(ThreadPool, TaskExceptionReachesCallerAndPoolStaysUsable) {
  core::set_num_threads(4);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::int64_t kTasks = 64;

  // The caller's own index throws while workers are still inside theirs:
  // each worker holds its index until the caller has claimed one (it must,
  // since only three indices are held), so the caller cannot unwind early.
  std::atomic<bool> caller_claimed{false};
  try {
    core::parallel_tasks(kTasks, [&](std::int64_t) {
      if (std::this_thread::get_id() == caller) {
        caller_claimed = true;
        throw std::runtime_error("caller task failed");
      }
      while (!caller_claimed) std::this_thread::yield();
    });
    FAIL() << "expected the caller's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller task failed");
  }
  EXPECT_FALSE(core::in_parallel_region());

  // A worker throws from the back half of the range; the caller blocks in
  // its own task until that has happened, so the failure is a worker's.
  std::atomic<bool> worker_threw{false};
  try {
    core::parallel_tasks(kTasks, [&](std::int64_t i) {
      if (std::this_thread::get_id() == caller) {
        while (!worker_threw) std::this_thread::yield();
        return;
      }
      if (i >= kTasks / 2) {
        worker_threw = true;
        throw std::runtime_error("worker task failed");
      }
    });
    FAIL() << "expected the worker's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker task failed");
  }

  // The pool still runs every index of the next region exactly once.
  std::vector<std::atomic<int>> hits(kTasks);
  core::parallel_tasks(kTasks, [&](std::int64_t i) { ++hits[i]; });
  for (std::int64_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // The inline path (one thread) unwinds out of its region mark too.
  core::set_num_threads(1);
  EXPECT_THROW(core::parallel_tasks(
                   2, [](std::int64_t) { throw std::runtime_error("inline"); }),
               std::runtime_error);
  EXPECT_FALSE(core::in_parallel_region());
}

}  // namespace
}  // namespace fp
