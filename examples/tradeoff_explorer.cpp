// tradeoff_explorer — interactive CLI over the privacy/robustness design
// space.
//
// Give it a GAR, a privacy budget, a batch size and an attack; it trains
// the paper's task under your configuration, reports the outcome, and
// asks the theory module whether the VN-ratio condition could even hold
// — so you can see *why* your configuration worked or collapsed.
//
// Examples:
//   tradeoff_explorer --gar median --eps 0.5 --batch 100 --attack little
//   tradeoff_explorer --gar mda --no-dp --attack empire
//   tradeoff_explorer --gar krum --f 4 --eps 0.2 --batch 500
#include <cmath>
#include <cstdio>

#include "core/experiment.hpp"
#include "theory/conditions.hpp"
#include "utils/flags.hpp"
#include "utils/strings.hpp"

int main(int argc, char** argv) {
  using namespace dpbyz;

  flags::Parser args(argc, argv,
                     {"gar", "eps", "delta", "batch", "attack", "f", "steps", "seed",
                      "no-dp", "help"});
  if (args.get_bool("help", false)) {
    std::printf(
        "usage: tradeoff_explorer [--gar NAME] [--f K] [--eps E | --no-dp]\n"
        "                         [--batch B] [--attack NAME] [--steps T] [--seed S]\n"
        "GARs: average krum multi-krum mda median trimmed-mean bulyan meamed\n"
        "      phocas geometric-median;  attacks: little empire signflip random\n"
        "      zero mimic (omit --attack for no attack)\n");
    return 0;
  }

  ExperimentConfig config;
  config.gar = args.get_string("gar", "mda");
  config.num_byzantine = args.get_count("f", 5);
  config.batch_size = args.get_count("batch", 50);
  config.steps = args.get_count("steps", 500);
  config.seed = args.get_count("seed", 1);
  if (!args.get_bool("no-dp", false)) {
    config.dp_enabled = true;
    config.epsilon = args.get_double("eps", 0.2);
    config.delta = args.get_double("delta", 1e-6);
  }
  if (args.has("attack")) {
    config.attack_enabled = true;
    config.attack = args.get_string("attack", "little");
  }
  config.validate();

  const PhishingExperiment experiment(42);
  std::printf("Configuration: %s\n", config.label().c_str());
  std::printf("Training %zu steps on the d = 69 phishing-like task...\n", config.steps);
  const RunResult run = experiment.run(config);

  std::printf("\nOutcome:\n");
  std::printf("  final test accuracy : %.3f\n", run.final_accuracy);
  std::printf("  minimum batch loss  : %.4f (first reached near step %zu)\n",
              run.min_train_loss, run.steps_to_min_loss);

  // Theory verdicts where the paper provides them.
  if (config.dp_enabled && config.gar != "average" && config.gar != "geometric-median") {
    const bool possible = theory::vn_condition_possible(
        config.gar, config.num_workers, config.num_byzantine, 69, config.batch_size,
        config.epsilon, config.delta);
    std::printf("\nTheory (Eq. 13): at this budget the VN-ratio condition for %s is %s\n",
                config.gar.c_str(),
                possible ? "still satisfiable — resilience can be certified"
                         : "impossible — resilience cannot be certified");
    if (config.gar == "mda") {
      std::printf("  Proposition 1: MDA would need b >= %.0f, or tau <= %.3f at b = %zu\n",
                  theory::mda_min_batch(config.num_workers, config.num_byzantine, 69,
                                        config.epsilon, config.delta),
                  theory::mda_max_byzantine_fraction(69, config.batch_size, config.epsilon,
                                                     config.delta),
                  config.batch_size);
    }
  }
  return 0;
}
