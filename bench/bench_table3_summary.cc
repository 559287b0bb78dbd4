// Reproduces Table III of the paper: the average and standard deviation of
// the L1 distance over the 12 structural properties, using 10% queried
// nodes, for all six datasets and all six methods.
//
// Paper reference (average ± SD, Proposed column): Anybeat 0.086±0.062,
// Brightkite 0.075±0.061, Epinions 0.058±0.055, Slashdot 0.063±0.057,
// Gowalla 0.097±0.089, Livemocha 0.099±0.105 — the lowest value in every
// row. Expected shape here: Proposed achieves the lowest average on every
// dataset.
//
// This binary is a pre-named `sgr run table3` (3 trials, RC 100, 600 path
// sources): `--json PATH` writes a report byte-identical to `sgr run
// table3 --out PATH`. Flags: --threads N, --json PATH; SGR_DATASET_SCALE
// scales the stand-ins. Other changes: `sgr scenarios show table3 >
// t.json`, edit, `sgr run t.json`.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace sgr;
  return bench::RunBuiltinScenarioBench(
      "table3", argc, argv, [](const ScenarioRunResult& result) {
        TablePrinter table(std::cout,
                           bench::MethodHeaders("Dataset", result));
        for (const ScenarioCell& cell : result.cells) {
          std::vector<std::string> row = {cell.dataset};
          for (const auto& [kind, aggregate] : cell.methods) {
            const DistanceSummary s = aggregate.distances.Summarize();
            row.push_back(TablePrinter::PlusMinus(s.mean_average, s.mean_sd));
          }
          table.AddRow(std::move(row));
        }
        table.Print();
        std::cout << "\nexpected shape (paper Table III): the Proposed "
                     "column has the lowest average on every dataset.\n";
      });
}
