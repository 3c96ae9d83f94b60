// dpbyz.hpp — umbrella header for the dpbyz library.
//
// dpbyz is a C++20 reproduction of "Differential Privacy and Byzantine
// Resilience in SGD: Do They Add Up?" (Guerraoui, Gupta, Pinot, Rouault,
// Stephan — PODC 2021).  Include this to get the whole public API; for
// faster builds include the per-subsystem headers directly.
#pragma once

// math — vectors, matrices, RNG, statistics
#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"
#include "math/vector_ops.hpp"

// data — datasets, samplers, synthetic generators, LIBSVM I/O
#include "data/dataset.hpp"
#include "data/libsvm_io.hpp"
#include "data/partition.hpp"
#include "data/samplers.hpp"
#include "data/synthetic.hpp"

// models — learning tasks, clipping, optimizers
#include "models/clipping.hpp"
#include "models/linear_model.hpp"
#include "models/mlp_model.hpp"
#include "models/model.hpp"
#include "models/optimizer.hpp"
#include "models/quadratic_model.hpp"

// dp — mechanisms, sensitivity, accountants
#include "dp/accountant.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "dp/laplace_mechanism.hpp"
#include "dp/mechanism.hpp"
#include "dp/sensitivity.hpp"

// aggregation — the GARs and their k_F constants
#include "aggregation/aggregator.hpp"
#include "aggregation/average.hpp"
#include "aggregation/bulyan.hpp"
#include "aggregation/cge.hpp"
#include "aggregation/geometric_median.hpp"
#include "aggregation/kf_table.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/meamed.hpp"
#include "aggregation/median.hpp"
#include "aggregation/phocas.hpp"
#include "aggregation/trimmed_mean.hpp"

// attacks — Byzantine strategies
#include "attacks/attack.hpp"
#include "attacks/auxiliary_attacks.hpp"
#include "attacks/fall_of_empires.hpp"
#include "attacks/little_is_enough.hpp"

// privacy — the curious server's attacks (why DP is needed)
#include "privacy/gradient_inversion.hpp"
#include "privacy/membership_inference.hpp"

// core — the distributed SGD pipeline
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/server.hpp"
#include "core/trainer.hpp"
#include "core/worker.hpp"

// theory — VN ratios, Propositions 1-3, Theorem 1
#include "theory/conditions.hpp"
#include "theory/vn_ratio.hpp"

// utils — CSV, tables, flags, timing
#include "utils/csv.hpp"
#include "utils/errors.hpp"
#include "utils/flags.hpp"
#include "utils/parallel.hpp"
#include "utils/stopwatch.hpp"
#include "utils/strings.hpp"
#include "utils/table.hpp"
