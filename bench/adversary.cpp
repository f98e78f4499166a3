// adversary — adversarial-tenant hardening benchmark: one misbehaving
// tenant among eight, with the TenantLedger's audit + credit + penalty
// machinery switched off and on over the SAME arrival trace. Emits
// BENCH_adversary.json and gates the headline claims:
//
//   * unenforced, a WSS inflator costs honest tenants >= 25% of their
//     all-honest goodput (the attack is real);
//   * enforced, honest tenants recover >= 90% of all-honest goodput (the
//     defense works);
//   * on an all-honest fleet, enforcement costs <= 2% (the defense is
//     affordable);
//   * long-term Jain fairness improves under enforcement for the inflator
//     cell, and credit conservation holds exactly in every enforced cell.
//
//   adversary [--arrivals N] [--jobs J]
//             [--out BENCH_adversary.json] [--baseline PATH]
//             [--quick] [--csv]
//
// Every cell is virtual-time and deterministic: byte-identical CSV for any
// --jobs value, including the per-cell TenantLedger fingerprint (tier1.sh
// cmps the --quick --csv output against tests/service/adversary_quick.expected
// at two fan-outs).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "service/arrival.hpp"
#include "service/frontend.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::util::MB;

constexpr std::uint64_t kAdversaryTenant = 1;
constexpr double kServiceMean = 2.0e-3;

struct Cell {
  std::string name;
  service::AdversaryKind adversary = service::AdversaryKind::kNone;
  bool enforce = false;
};

struct CellResult {
  Cell cell;
  service::ServiceReport report;
  // Derived per-cell metrics (honest = every tenant but the adversary's id,
  // even in all-honest cells, so numerators stay comparable).
  double honest_work = 0.0;       ///< completed base service-sec, honest
  std::uint64_t honest_completed = 0;
  double jain_long = 0.0;         ///< Jain over completed/arrivals
  double jain_short = 0.0;        ///< Jain over admission responsiveness
  int adversary_rung = 0;         ///< ledger rung of the adversary at end
};

std::vector<Cell> build_cells() {
  using service::AdversaryKind;
  std::vector<Cell> cells;
  const auto add = [&](const char* name, AdversaryKind kind, bool enforce) {
    Cell cell;
    cell.name = name;
    cell.adversary = kind;
    cell.enforce = enforce;
    cells.push_back(cell);
  };
  add("all_honest_off", AdversaryKind::kNone, false);
  add("all_honest_on", AdversaryKind::kNone, true);
  add("inflator_off", AdversaryKind::kWssInflator, false);
  add("inflator_on", AdversaryKind::kWssInflator, true);
  add("under_declarer_off", AdversaryKind::kUnderDeclarer, false);
  add("under_declarer_on", AdversaryKind::kUnderDeclarer, true);
  add("churn_off", AdversaryKind::kChurn, false);
  add("churn_on", AdversaryKind::kChurn, true);
  return cells;
}

/// Jain's fairness index (Σx)² / (n·Σx²) over per-tenant allocations x;
/// 1 = perfectly even, 1/n = one tenant has everything.
double jain(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

CellResult run_cell(const Cell& cell, std::uint64_t arrivals) {
  service::ArrivalConfig arr;
  arr.shape = service::ArrivalShape::kPoisson;
  // ~86% of the honest fleet's service capacity (4 nodes x 15MB / 2MB mean
  // demand = 28 concurrent x 1/2ms = 14000/s): loaded enough that capacity
  // an inflator hoards is capacity honest tenants bleed for, with headroom
  // so the all-honest fleet itself stays off the overload ladder.
  arr.rate = 12000.0;
  arr.seed = 29;
  arr.tenants = 8;
  arr.hot_tenant_share = 0.4;  // the adversary is the hot tenant
  arr.demand_mean_bytes = static_cast<double>(MB(2));
  arr.service_mean_seconds = kServiceMean;
  arr.adversary.kind = cell.adversary;
  arr.adversary.tenant = kAdversaryTenant;
  arr.adversary.factor = 8.0;
  arr.adversary.churn_pieces = 8;

  service::ServiceConfig cfg;
  cfg.nodes = 4;
  cfg.node_llc_bytes = static_cast<double>(MB(15));
  // One physical model for EVERY cell: completed periods occupy what they
  // actually touch, and a node driven past its LLC thrashes. Enforcement
  // is the only axis that varies between _off and _on.
  cfg.model_true_occupancy = true;
  cfg.enforce = cell.enforce;

  service::ArrivalGenerator gen(arr);
  service::ServiceFrontEnd frontend(cfg);
  CellResult result;
  result.cell = cell;
  result.report = frontend.run(gen, arrivals);

  const service::ServiceStats& s = result.report.stats;
  RDA_CHECK_MSG(s.completed + s.shed == arrivals,
                "adversary cell lost or duplicated arrivals");
  RDA_CHECK_MSG(s.still_queued == 0, "adversary cell left work queued");
  RDA_CHECK_MSG(s.overflow_drops == 0, "adversary cell overflowed its queue");
  RDA_CHECK_MSG(result.report.credits_conserved,
                "credit conservation broken: granted != spent + outstanding");
  if (cell.enforce) {
    RDA_CHECK_MSG(s.audits > 0, "enforced cell audited nothing");
  }

  std::vector<double> success;   // completed / arrivals, per tenant
  std::vector<double> response;  // 1 / (1 + mean admission latency / service)
  for (const service::TenantSummary& row : result.report.tenants) {
    if (row.tenant != kAdversaryTenant) {
      result.honest_work += row.work;
      result.honest_completed += row.completed;
    } else {
      result.adversary_rung = row.rung;
    }
    success.push_back(row.arrivals > 0
                          ? static_cast<double>(row.completed) /
                                static_cast<double>(row.arrivals)
                          : 0.0);
    const double mean_latency =
        row.admissions > 0
            ? row.latency_sum / static_cast<double>(row.admissions)
            : 0.0;
    response.push_back(1.0 / (1.0 + mean_latency / kServiceMean));
  }
  result.jain_long = jain(success);
  result.jain_short = jain(response);
  return result;
}

void print_csv(const std::vector<CellResult>& results) {
  // Byte-compared against its golden by tier1.sh; the ledger fingerprint
  // column pins the enforcement state itself, not just the service
  // outcomes.
  std::printf(
      "cell,completed,shed,audits,penalties,haircuts,quota_denied,"
      "credits_granted,credits_spent,honest_completed,honest_work,"
      "jain_long,jain_short,checksum,ledger_fingerprint\n");
  for (const CellResult& r : results) {
    const service::ServiceStats& s = r.report.stats;
    std::printf(
        "%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.17g,%.17g,%.17g,"
        "%llx,%llx\n",
        r.cell.name.c_str(), static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.shed),
        static_cast<unsigned long long>(s.audits),
        static_cast<unsigned long long>(s.penalties),
        static_cast<unsigned long long>(s.haircuts),
        static_cast<unsigned long long>(s.quota_denied),
        static_cast<unsigned long long>(s.credits_granted),
        static_cast<unsigned long long>(s.credits_spent),
        static_cast<unsigned long long>(r.honest_completed), r.honest_work,
        r.jain_long, r.jain_short,
        static_cast<unsigned long long>(r.report.checksum),
        static_cast<unsigned long long>(r.report.ledger_fingerprint));
  }
}

double json_number_after(const std::string& text, const std::string& anchor,
                         const std::string& key, double fallback) {
  std::size_t from = 0;
  if (!anchor.empty()) {
    from = text.find("\"" + anchor + "\"");
    if (from == std::string::npos) return fallback;
  }
  const std::size_t at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return fallback;
  const char* p = text.c_str() + at + key.size() + 3;
  char* end = nullptr;
  const double value = std::strtod(p, &end);
  return end == p ? fallback : value;
}

const CellResult& find_cell(const std::vector<CellResult>& results,
                            const std::string& name) {
  for (const CellResult& r : results) {
    if (r.cell.name == name) return r;
  }
  RDA_CHECK_MSG(false, "missing adversary cell " + name);
  return results.front();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = exp::has_flag(argc, argv, "--quick");
  const bool csv = exp::has_flag(argc, argv, "--csv");
  const std::uint64_t arrivals =
      exp::parse_u64_flag(argc, argv, "--arrivals", quick ? 8'000 : 40'000);
  const int jobs = exp::parse_jobs(argc, argv);
  const std::string out_path =
      exp::parse_string_flag(argc, argv, "--out", "BENCH_adversary.json");
  const std::string baseline_path =
      exp::parse_string_flag(argc, argv, "--baseline", "");

  const std::vector<Cell> cells = build_cells();
  std::vector<CellResult> results(cells.size());
  exp::run_cells(cells.size(), jobs, [&](std::size_t i) {
    results[i] = run_cell(cells[i], arrivals);
  });

  if (csv) {
    print_csv(results);
    return 0;
  }

  for (const CellResult& r : results) {
    const service::ServiceStats& s = r.report.stats;
    std::printf(
        "%-20s honest work %9.4f s  completed %6llu  shed %5llu  "
        "jain %5.3f/%5.3f  audits %6llu  penalties %3llu  adv rung %d\n",
        r.cell.name.c_str(), r.honest_work,
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.shed), r.jain_long, r.jain_short,
        static_cast<unsigned long long>(s.audits),
        static_cast<unsigned long long>(s.penalties), r.adversary_rung);
  }

  const CellResult& honest_off = find_cell(results, "all_honest_off");
  const CellResult& honest_on = find_cell(results, "all_honest_on");
  const CellResult& inflator_off = find_cell(results, "inflator_off");
  const CellResult& inflator_on = find_cell(results, "inflator_on");
  const CellResult& under_off = find_cell(results, "under_declarer_off");
  const CellResult& under_on = find_cell(results, "under_declarer_on");
  const CellResult& churn_off = find_cell(results, "churn_off");
  const CellResult& churn_on = find_cell(results, "churn_on");

  const double base = honest_off.honest_work;
  const double overhead =
      base > 0.0 ? 1.0 - honest_on.honest_work / base : 1.0;
  const double unenforced_loss =
      base > 0.0 ? 1.0 - inflator_off.honest_work / base : 0.0;
  const double recovery =
      base > 0.0 ? inflator_on.honest_work / base : 0.0;
  std::printf(
      "headline: unenforced inflator loss %.1f%%, enforced recovery %.1f%%, "
      "all-honest enforcement overhead %.2f%%\n",
      100.0 * unenforced_loss, 100.0 * recovery, 100.0 * overhead);

  int rc = 0;
  const auto gate = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "error: %s\n", what);
      rc = 1;
    }
  };
  // The attack is real: one inflator among eight costs honest tenants at
  // least a quarter of their goodput when declarations are trusted.
  gate(unenforced_loss >= 0.25,
       "unenforced WSS inflator cost honest tenants < 25%");
  // The defense works: enforcement claws back >= 90% of all-honest goodput.
  gate(recovery >= 0.90,
       "enforcement recovered < 90% of all-honest honest-tenant goodput");
  // The defense is affordable: <= 2% on an all-honest fleet.
  gate(overhead <= 0.02, "enforcement cost an all-honest fleet > 2%");
  // Fairness must move the right way, both horizons.
  gate(inflator_on.jain_long > inflator_off.jain_long,
       "long-term Jain did not improve under enforcement (inflator)");
  gate(inflator_on.jain_short >= inflator_off.jain_short,
       "short-term Jain regressed under enforcement (inflator)");
  // The ladder actually engaged on the liars, and only on the liars.
  gate(inflator_on.adversary_rung >= 1 &&
           inflator_on.report.stats.penalties > 0,
       "inflator never climbed the penalty ladder");
  gate(under_on.adversary_rung >= 1 && under_on.report.stats.penalties > 0,
       "under-declarer never climbed the penalty ladder");
  gate(honest_on.report.stats.penalties == 0,
       "an all-honest fleet took penalties");
  // The under-declarer's harm is thrash latency, not lost completions, so
  // its recovery gate is on short-horizon responsiveness fairness: quota
  // plus haircut must restore what the liar stole without costing honest
  // goodput.
  gate(under_on.jain_short > under_off.jain_short,
       "enforcement did not restore responsiveness the under-declarer stole");
  gate(under_on.honest_work >= 0.98 * under_off.honest_work,
       "enforcement cost under-declarer victims > 2% goodput");
  gate(churn_on.honest_work >= 0.95 * churn_off.honest_work,
       "enforcement cost churn victims > 5%");

  std::ostringstream json;
  json << "{\n  \"arrivals\": " << arrivals << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"unenforced_loss\": %.4f,\n  \"recovery\": %.4f,\n"
                "  \"enforce_overhead\": %.4f,\n",
                unenforced_loss, recovery, overhead);
  json << buf;
  json << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    const service::ServiceStats& s = r.report.stats;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"honest_work\": %.6f, "
        "\"jain_long\": %.4f, \"jain_short\": %.4f,\n"
        "     \"completed\": %llu, \"shed\": %llu, \"audits\": %llu, "
        "\"penalties\": %llu, \"credits_granted\": %llu, "
        "\"credits_spent\": %llu, \"adversary_rung\": %d}%s\n",
        r.cell.name.c_str(), r.honest_work, r.jain_long, r.jain_short,
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.shed),
        static_cast<unsigned long long>(s.audits),
        static_cast<unsigned long long>(s.penalties),
        static_cast<unsigned long long>(s.credits_granted),
        static_cast<unsigned long long>(s.credits_spent), r.adversary_rung,
        i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";

  try {
    util::write_file_atomic(out_path, json.str());
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }

  // Regression gate against the committed snapshot: deterministic
  // virtual-time metrics, so any >10% drop is a code change, not noise.
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::printf("no committed baseline at %s; recorded fresh snapshot\n",
                  baseline_path.c_str());
    } else {
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string basej = buffer.str();
      const double base_arrivals =
          json_number_after(basej, "", "arrivals", 0.0);
      if (static_cast<std::uint64_t>(base_arrivals) != arrivals) {
        // A gate that cannot compare must fail, not pass silently.
        std::fprintf(stderr,
                     "error: baseline %s used %.0f arrivals (this run: %llu); "
                     "regenerate it with the same arrival count\n",
                     baseline_path.c_str(), base_arrivals,
                     static_cast<unsigned long long>(arrivals));
        rc = 1;
      } else {
        const double base_recovery =
            json_number_after(basej, "", "recovery", 0.0);
        if (base_recovery > 0.0 && recovery < base_recovery - 0.10) {
          std::fprintf(stderr,
                       "error: recovery %.3f fell >0.10 below the committed "
                       "%.3f\n",
                       recovery, base_recovery);
          rc = 1;
        }
        for (const CellResult& r : results) {
          const double base_work =
              json_number_after(basej, r.cell.name, "honest_work", 0.0);
          if (base_work > 0.0 && r.honest_work < 0.9 * base_work) {
            std::fprintf(stderr,
                         "error: %s honest work %.4f fell >10%% below the "
                         "committed %.4f\n",
                         r.cell.name.c_str(), r.honest_work, base_work);
            rc = 1;
          }
        }
      }
    }
  }
  return rc;
}
