// The seam between the federated runtime and the distributed transport
// (DESIGN.md §10).
//
// The engine and schedulers never touch sockets: on a distributed root, the
// sync scheduler hands each dispatch group to the RemoteDispatcher the
// environment carries instead of training in-process, and gets back the
// same Upload vector the parallel local loop would have produced — the
// workers' uplink tapes decoded through the root's own broadcast references,
// so aggregation is bit-identical to the single-process run. src/net/ implements this
// interface over TCP; everything above it is transport-agnostic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fp::comm {
struct WireTape;
}

namespace fp::fed {

class RoundMethod;
struct TaskSpec;
struct Upload;

class RemoteDispatcher {
 public:
  virtual ~RemoteDispatcher() = default;

  /// Connected workers. Client k of every dispatch is owned by worker
  /// (k % num_workers()): sticky ownership keeps each client's persistent
  /// state (RNG stream, shuffling batch iterator) advancing on exactly one
  /// worker, which is what makes distributed runs hash-match single-process.
  virtual std::size_t num_workers() const = 0;

  /// Ships tasks[begin, end) to their owning workers with the dispatch's
  /// recorded `broadcast` tape and m.net_save_round's scalars, and fills
  /// uploads[i - begin] for every i from the returned uplink tapes through
  /// m.net_assemble_upload. Returns the group's measured transfer
  /// seconds: group wall time minus the slowest worker's self-reported
  /// compute time — the number the modeled comm_s is checked against.
  /// Throws net::NetError when a worker disconnects or times out mid-group.
  virtual double run_group(RoundMethod& m, const comm::WireTape& broadcast,
                           const std::vector<TaskSpec>& tasks,
                           std::size_t begin, std::size_t end,
                           std::vector<Upload>& uploads) = 0;

  /// Method-specific auxiliary fan-out (e.g. FedProphet's ||Delta z|| probe):
  /// ships (op, ctx) to the owners of `clients` — each owner runs
  /// m.net_custom_op per owned client — and returns one result frame per
  /// client, in the order of `clients`.
  virtual std::vector<std::vector<std::uint8_t>> run_custom(
      std::uint32_t op, const std::vector<std::uint8_t>& ctx,
      const std::vector<std::size_t>& clients) = 0;

  /// Real socket byte counters (sum over worker connections) and the
  /// cumulative measured transfer seconds — what the [net] summary reports
  /// next to the modeled bytes/comm_s.
  virtual std::int64_t tx_bytes() const = 0;
  virtual std::int64_t rx_bytes() const = 0;
  virtual double measured_comm_s() const = 0;
};

}  // namespace fp::fed
