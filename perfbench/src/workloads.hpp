// The four benchmark workloads. Each fills the Report with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), prints the
// rest as context, and records every correctness check it makes.
#pragma once

#include <functional>

#include "report.hpp"

namespace perfbench {

/// Machine drift: bench/calib.hpp's kernel on the calling thread's CPU,
/// over its anchor (> 1: this CPU runs slower right now than the anchor
/// machine). The vCPUs of a shared host speed up and slow down with their
/// neighbours' load by more than the bounds allow, so host timings are
/// divided by the factor measured beside them (rates multiplied), as the
/// repository's own benches do. The raw figures are printed too.
double machine_factor();

/// Runs `setup` three times on every CPU, the calling thread pinned, and
/// returns the mean over CPUs of each CPU's median normalised seconds:
/// setup_s. Threads `setup` starts must unpin themselves.
double measure_setup(const std::function<void()>& setup);

void run_gate_calm(const Options& options, Report& report);
void run_gate_overcommit(const Options& options, Report& report);
void run_service_adversarial(const Options& options, Report& report);
void run_sim_table2(const Options& options, Report& report);

/// Writes a traced run's spans as Chrome trace_event JSON into
/// options.trace_dir and prints the path.
class SpanLog;
void write_trace(const Options& options, const SpanLog& log, Report& report);

}  // namespace perfbench
