// Reproduces Table II of the paper: the L1 distance of each of the 12
// structural properties for each method, using 10% queried nodes, on the
// Slashdot / Gowalla / Livemocha stand-ins.
//
// Expected shape (paper Table II): subgraph sampling biases n and P(k)
// heavily (L1 ~ 0.24-0.44 for n) while the generative methods fix those;
// the proposed method beats Gjoka et al. decisively on c(k) and P(s)
// (e.g. Slashdot c(k): 0.708 -> 0.205) and on most global properties.
//
// This binary is a pre-named `sgr run table2` (3 trials, RC 100 — the
// paper uses 500 —, 600 path sources): `--json PATH` writes a report
// byte-identical to `sgr run table2 --out PATH`. Flags: --threads N,
// --json PATH; SGR_DATASET_SCALE scales the stand-ins. Other changes:
// `sgr scenarios show table2 > t.json`, edit, `sgr run t.json`.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace sgr;
  return bench::RunBuiltinScenarioBench(
      "table2", argc, argv, [](const ScenarioRunResult& result) {
        std::vector<std::string> headers = {"Method"};
        for (const auto& prop : PropertyNames()) headers.push_back(prop);
        for (const ScenarioCell& cell : result.cells) {
          std::cout << "## " << cell.dataset << "\n";
          TablePrinter table(std::cout, headers);
          for (const auto& [kind, aggregate] : cell.methods) {
            std::vector<std::string> row = {MethodName(kind)};
            for (double d : aggregate.distances.Summarize().mean_per_property) {
              row.push_back(TablePrinter::Fixed(d));
            }
            table.AddRow(std::move(row));
          }
          table.Print();
          std::cout << "\n";
        }
        std::cout << "expected shape (paper Table II): Proposed/Gjoka fix n, "
                     "k_avg, P(k); Proposed additionally fixes knn(k), c(k), "
                     "P(s), b(k).\n";
      });
}
