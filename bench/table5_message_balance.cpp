// Table V — max/mean ratio of per-worker CC messages (with the imbalance
// factors in parentheses), the paper's message-balance metric.
#include <iostream>
#include <string>

#include "analysis/experiment.h"
#include "analysis/message_stats.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "common/format.h"
#include "partition/registry.h"

int main(int argc, char** argv) {
  using namespace ebv;
  const double scale = bench::parse_scale(argc, argv, 0.5);
  bench::preamble(
      "Table V: max/mean ratio of per-worker messages on CC",
      "paper: ~1.00 for EBV/Ginger/DBH/CVC; NE 1.6-2.7 and METIS 1.8-3.3, "
      "growing with skew",
      scale);

  for (const auto& d : analysis::standard_datasets(scale)) {
    std::cout << d.name << " (p=" << d.table3_parts << ")\n";
    analysis::Table table({"partitioner", "max/mean", "(edge imb/vertex imb)"});
    for (const auto& name : paper_partitioners()) {
      const auto r = analysis::run_experiment(d.graph, name, d.table3_parts,
                                              analysis::App::kCC);
      const auto s = analysis::compute_message_stats(r.run);
      // Imbalance factors use the paper's per-family definitions
      // (edge-cut for METIS), matching Table III.
      const auto m = analysis::paper_metrics(d.graph, name, d.table3_parts);
      const std::string edge_imb = format_fixed(m.edge_imbalance, 2);
      const std::string vertex_imb = format_fixed(m.vertex_imbalance, 2);
      table.add_row({name, format_fixed(s.max_over_mean, 3),
                     "(" + edge_imb + "/" + vertex_imb + ")"});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
