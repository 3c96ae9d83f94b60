// dpbyz_churn_stress — cross-process witness of the checkpoint/restore
// byte-identity contract under churn (core/checkpoint.hpp).
//
// One invocation = one training run of a churning, checkpointing config
// on the paper's phishing task; the full trajectory (per-round losses,
// roster sizes, renegotiated budgets, the churn trace, evals, final θ)
// is written to --out with every double rendered as a hexfloat, so two
// trajectory files are comparable with cmp(1).
//
// The CI churn-stress leg runs it three times:
//
//   dpbyz_churn_stress --steps=300 --out=full.txt            # uninterrupted
//   dpbyz_churn_stress --steps=150 --ckpt=s.ckpt --out=/dev/null   # "kill"
//   dpbyz_churn_stress --steps=300 --ckpt=s.ckpt --out=resumed.txt # restore
//   cmp full.txt resumed.txt
//
// The second process ends at the round-150 checkpoint; the third resumes
// from its file in a fresh process and must reproduce the uninterrupted
// trajectory byte for byte.  (The uninterrupted run deliberately has no
// checkpoint path: checkpointing itself must not perturb a depth-0
// trajectory, so this also cross-checks the checkpointing-off contract.)
#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/membership.hpp"
#include "utils/flags.hpp"

int main(int argc, char** argv) {
  using namespace dpbyz;
  try {
    flags::Parser flags(argc, argv,
                        {"steps", "ckpt", "out", "epoch-rounds", "join", "leave",
                         "seed", "churn-seed", "help"});
    if (flags.get_bool("help", false)) {
      std::printf(
          "usage: dpbyz_churn_stress [--steps=T] [--ckpt=FILE] --out=FILE\n"
          "  [--epoch-rounds=E] [--join=p] [--leave=p] [--seed=s] [--churn-seed=cs]\n");
      return 0;
    }

    ExperimentConfig config;
    config.gar = "median";
    config.attack_enabled = true;
    config.attack = "little";
    config.num_workers = 11;
    config.num_byzantine = 3;
    config.steps = flags.get_count("steps", 300);
    config.eval_every = 50;
    config.churn = "epoch";
    config.churn_epoch_rounds = flags.get_count("epoch-rounds", 20);
    config.churn_join_prob = flags.get_double("join", 0.6);
    config.churn_leave_prob = flags.get_double("leave", 0.1);
    config.seed = flags.get_count("seed", 1);
    config.churn_seed = flags.get_count("churn-seed", 7);
    config.checkpoint_path = flags.get_string("ckpt", "");
    if (!config.checkpoint_path.empty()) config.checkpoint_every = 25;

    const std::string out_path = flags.get_string("out", "");
    if (out_path.empty()) {
      std::fprintf(stderr, "dpbyz_churn_stress: --out is required\n");
      return 1;
    }

    const PhishingExperiment experiment(42);
    const RunResult result = experiment.run(config);

    std::FILE* out = std::fopen(out_path.c_str(), "wb");
    if (!out) {
      std::fprintf(stderr, "dpbyz_churn_stress: cannot open '%s'\n",
                   out_path.c_str());
      return 1;
    }
    std::fprintf(out, "churn-stress %zu rounds\n", result.train_loss.size());
    for (size_t t = 0; t < result.train_loss.size(); ++t)
      std::fprintf(out, "round %zu loss %a rows %zu f %zu\n", t + 1,
                   result.train_loss[t], result.round_rows[t], result.round_f[t]);
    for (const ChurnEvent& ev : result.churn_trace)
      std::fprintf(out, "churn epoch %" PRIu32 " %s worker %" PRIu32 "\n",
                   ev.epoch, churn_kind_name(ev.kind), ev.worker);
    for (const auto& e : result.eval)
      std::fprintf(out, "eval %zu acc %a\n", e.step, e.accuracy);
    for (double s : result.reputation_scores)
      std::fprintf(out, "rep %a\n", s);
    std::fprintf(out, "theta");
    for (double w : result.final_parameters) std::fprintf(out, " %a", w);
    std::fprintf(out, "\n");
    std::fclose(out);

    std::printf("churn-stress: %zu rounds, %zu churn events -> %s\n",
                result.train_loss.size(), result.churn_trace.size(),
                out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpbyz_churn_stress: %s\n", e.what());
    return 1;
  }
}
