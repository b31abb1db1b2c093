#include "wcle/api/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "wcle/api/registry.hpp"
#include "wcle/api/sink.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/trace/writer.hpp"

namespace wcle {

std::vector<SweepCell> expand_cells(const ExperimentSpec& spec) {
  if (spec.trials <= 0)
    throw std::invalid_argument("sweep: trials must be >= 1");
  if (spec.algorithms.empty() || spec.families.empty() || spec.sizes.empty() ||
      spec.bandwidths.empty() || spec.drops.empty() || spec.crashes.empty() ||
      spec.linkfails.empty() || spec.adversaries.empty())
    throw std::invalid_argument("sweep: every axis needs at least one value");
  for (const std::string& algo : spec.algorithms)
    AlgorithmRegistry::instance().at(algo);  // throws with the known list

  // Knob combinations in alphabetical key order, values in listed order.
  std::vector<std::pair<std::string, std::vector<std::string>>> knob_axes(
      spec.knobs.begin(), spec.knobs.end());
  std::size_t knob_combos = 1;
  for (const auto& [key, values] : knob_axes) {
    if (values.empty())
      throw std::invalid_argument("sweep: knob '" + key + "' has no values");
    knob_combos *= values.size();
  }

  std::vector<SweepCell> cells;
  cells.reserve(spec.cell_count());
  for (const std::string& family : spec.families) {
    for (const std::uint64_t n : spec.sizes) {
      for (const std::string& algo : spec.algorithms) {
        for (const std::string& bandwidth : spec.bandwidths) {
          for (const double drop : spec.drops) {
            for (const double crash : spec.crashes) {
              for (const double linkfail : spec.linkfails) {
                for (const std::string& adversary : spec.adversaries) {
                  for (std::size_t combo = 0; combo < knob_combos; ++combo) {
                    SweepCell cell;
                    cell.index = cells.size();
                    cell.algorithm = algo;
                    cell.family = family;
                    cell.bandwidth = bandwidth;
                    cell.requested_n = n;
                    cell.drop = drop;
                    cell.crash = crash;
                    cell.linkfail = linkfail;
                    cell.adversary = adversary;
                    // Mixed-radix decode of the combo index,
                    // most-significant knob first, so listed value order is
                    // the inner loop.
                    std::size_t rest = combo;
                    std::size_t radix = knob_combos;
                    for (const auto& [key, values] : knob_axes) {
                      radix /= values.size();
                      const std::size_t pick = rest / radix;
                      rest %= radix;
                      cell.knobs.emplace_back(key, values[pick]);
                    }
                    // Bandwidth first, then knobs: an explicit wide=/c1=
                    // knob must win over what the bandwidth regime implies.
                    // Fault axes apply last (the scalar fault knobs —
                    // crash-round, churn windows — only shape the schedule).
                    apply_bandwidth(cell.options, bandwidth);
                    for (const auto& [key, value] : cell.knobs)
                      apply_knob(cell.options, key, value);
                    cell.options.params.drop_probability = drop;
                    cell.options.params.faults.crash_fraction = crash;
                    cell.options.params.faults.linkfail_fraction = linkfail;
                    cell.options.params.faults.adversary = adversary;
                    // A churn fraction without its window is malformed
                    // input: reject it here, before any job is accepted.
                    cell.options.params.faults.validate();
                    cells.push_back(std::move(cell));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

namespace {

using GraphMap = std::map<std::pair<std::string, std::uint64_t>, Graph>;

/// expand_cells + the skip_unreliable filter, sharing the graph map with
/// the caller so run_sweep builds each distinct (family, n) graph exactly
/// once. This is THE cell list: run_sweep and the serve job queue both get
/// their cells (and cell indices) from here, which is what keeps their
/// output bytes identical.
std::vector<SweepCell> cells_with_graphs(const ExperimentSpec& spec,
                                         GraphMap& graphs) {
  std::vector<SweepCell> cells = expand_cells(spec);

  // Build each distinct (family, n) graph once, in expansion order.
  for (const SweepCell& cell : cells) {
    const auto key = std::make_pair(cell.family, cell.requested_n);
    if (!graphs.count(key))
      graphs.emplace(key, make_family(cell.family,
                                      static_cast<NodeId>(cell.requested_n),
                                      spec.graph_seed));
  }

  if (spec.skip_unreliable) {
    std::vector<SweepCell> kept;
    for (SweepCell& cell : cells) {
      const Graph& g = graphs.at({cell.family, cell.requested_n});
      const Algorithm& algo = AlgorithmRegistry::instance().at(cell.algorithm);
      if (algo.kind() == Algorithm::Kind::kElection && !algo.reliable_on(g))
        continue;  // e.g. clique_referee off-clique: not a fair row
      cell.index = kept.size();
      kept.push_back(std::move(cell));
    }
    cells = std::move(kept);
  }
  return cells;
}

/// One cell's trials on its graph, on the single-threaded trial path;
/// `traces` (optional) receives every trial's timeline.
CellResult run_cell_on(const ExperimentSpec& spec, const SweepCell& cell,
                       const Graph& g,
                       std::vector<TraceRecorder>* traces = nullptr) {
  CellResult r;
  r.cell = cell;
  r.n = g.node_count();
  r.m = g.edge_count();
  r.stats = run_trials(AlgorithmRegistry::instance().at(cell.algorithm), g,
                       cell.options, spec.trials, spec.base_seed,
                       /*threads=*/1, traces);
  return r;
}

}  // namespace

std::vector<SweepCell> sweep_cells(const ExperimentSpec& spec) {
  GraphMap graphs;
  return cells_with_graphs(spec, graphs);
}

CellResult run_sweep_cell(const ExperimentSpec& spec, const SweepCell& cell) {
  return run_cell_on(spec, cell,
                     make_family(cell.family,
                                 static_cast<NodeId>(cell.requested_n),
                                 spec.graph_seed));
}

std::vector<CellResult> run_sweep(const ExperimentSpec& spec,
                                  const std::vector<Sink*>& sinks,
                                  unsigned threads, TraceWriter* trace) {
  GraphMap graphs;
  std::vector<SweepCell> cells = cells_with_graphs(spec, graphs);

  for (Sink* sink : sinks)
    if (sink) sink->begin(spec, cells);

  std::vector<CellResult> results(cells.size());
  std::vector<char> done(cells.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr failure;

  // Each cell's trials run on the single-threaded trial path; parallelism
  // comes from cells. That keeps TrialStats::threads (and therefore every
  // serialized byte) independent of the worker count.
  std::vector<std::vector<TraceRecorder>> cell_traces(
      trace ? cells.size() : 0);
  auto run_cell = [&](std::size_t i) {
    const SweepCell& cell = cells[i];
    return run_cell_on(spec, cell, graphs.at({cell.family, cell.requested_n}),
                       trace ? &cell_traces[i] : nullptr);
  };
  // Timelines stream in (cell, trial) order alongside the sinks, then free
  // their memory. Workers may run ahead of the in-order flush cursor, so a
  // traced sweep can buffer every completed-but-unflushed cell's rows;
  // traced runs are meant for smoke scales, not scale-2 grids.
  auto flush_trace = [&](std::size_t i) {
    if (!trace) return;
    const CellResult& r = results[i];
    for (std::size_t t = 0; t < cell_traces[i].size(); ++t) {
      TraceRunMeta meta;
      meta.run = static_cast<std::uint64_t>(r.cell.index) * spec.trials + t;
      meta.cell = r.cell.index;
      meta.trial = t;
      meta.seed = spec.base_seed + t;
      meta.n = r.n;
      meta.algorithm = r.cell.algorithm;
      meta.family = r.cell.family;
      write_run(*trace, meta, cell_traces[i][t]);
    }
    cell_traces[i].clear();
    cell_traces[i].shrink_to_fit();
  };
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < cells.size() && !failed.load();
         i = next.fetch_add(1)) {
      try {
        CellResult r = run_cell(i);
        const std::lock_guard<std::mutex> lock(mu);
        results[i] = std::move(r);
        done[i] = 1;
        cv.notify_all();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
        failed.store(true);
        cv.notify_all();
      }
    }
  };

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  unsigned workers = threads == 0 ? hw : threads;
  workers = std::min<unsigned>(
      workers, static_cast<unsigned>(std::max<std::size_t>(1, cells.size())));

  if (workers <= 1) {
    // Inline: compute and stream one cell at a time.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results[i] = run_cell(i);
      for (Sink* sink : sinks)
        if (sink) sink->cell(results[i]);
      flush_trace(i);
    }
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
    // Stream results in cell order as they become ready. Sink I/O happens
    // outside the lock: once done[i] is observed under the mutex, results[i]
    // is fully written and never touched again, so workers keep claiming
    // cells while slow sinks drain. A throwing sink must not escape while
    // the pool is unjoined (std::terminate) — stop the workers, join, then
    // rethrow.
    std::exception_ptr sink_failure;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done[i] || failed.load(); });
        if (failed.load()) break;
      }
      try {
        for (Sink* sink : sinks)
          if (sink) sink->cell(results[i]);
        flush_trace(i);
      } catch (...) {
        sink_failure = std::current_exception();
        failed.store(true);
        break;
      }
    }
    for (std::thread& t : pool) t.join();
    if (failure) std::rethrow_exception(failure);
    if (sink_failure) std::rethrow_exception(sink_failure);
  }

  for (Sink* sink : sinks)
    if (sink) sink->end(spec);
  if (trace)
    trace->finish(static_cast<std::uint64_t>(cells.size()) *
                  static_cast<std::uint64_t>(spec.trials));
  return results;
}

}  // namespace wcle
