// Reproduces Figure 3 of the paper: average L1 distance over the 12
// structural properties as a function of the percentage of queried nodes,
// for the six methods, on the Anybeat / Brightkite / Epinions stand-ins.
//
// Paper reference points (10% queried, average L1): Anybeat FF 0.099 ->
// Proposed 0.086; Brightkite Gjoka 0.151 -> Proposed 0.075; Epinions Gjoka
// 0.123 -> Proposed 0.058. The expected *shape*: Proposed lowest at every
// fraction, generative methods ahead of raw subgraph sampling.
//
// This binary is a pre-named `sgr run fig3-sweep` (fractions 2%-10% in
// five steps, 3 trials per point, RC 100 — 500 matches the paper but
// multiplies runtime —, 600 path sources): `--json PATH` writes a report
// byte-identical to `sgr run fig3-sweep --out PATH`, one cell per dataset
// x fraction. Flags: --threads N, --json PATH; SGR_DATASET_SCALE scales
// the stand-ins. Other sweeps: `sgr scenarios show fig3-sweep > f.json`,
// edit "fractions", `sgr run f.json`.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace sgr;
  return bench::RunBuiltinScenarioBench(
      "fig3-sweep", argc, argv, [](const ScenarioRunResult& result) {
        // Cells run datasets-major, so each dataset's fractions are
        // consecutive.
        const std::vector<ScenarioCell>& cells = result.cells;
        for (std::size_t first = 0; first < cells.size();) {
          const std::string& dataset = cells[first].dataset;
          std::cout << "## " << dataset << "\n";
          TablePrinter table(std::cout,
                             bench::MethodHeaders("% queried", result));
          for (; first < cells.size() && cells[first].dataset == dataset;
               ++first) {
            const ScenarioCell& cell = cells[first];
            std::vector<std::string> row = {
                TablePrinter::Fixed(100.0 * cell.knobs.fraction, 0)};
            for (const auto& [kind, aggregate] : cell.methods) {
              row.push_back(TablePrinter::Fixed(
                  aggregate.distances.Summarize().mean_average));
            }
            table.AddRow(std::move(row));
          }
          table.Print();
          std::cout << "\n";
        }
        std::cout << "expected shape (paper Fig. 3): Proposed lowest at "
                     "every fraction; all methods improve as the budget "
                     "grows.\n";
      });
}
