// calu.h — umbrella header for the calu-hybrid library.
//
// Reproduction of "Hybrid static/dynamic scheduling for already optimized
// dense matrix factorization" (Donfack, Grigori, Gropp, Kale; IPDPS 2012).
//
// Quickstart:
//
//   #include "src/calu.h"
//   calu::layout::Matrix a = calu::layout::Matrix::random(n, n, seed);
//   calu::core::Options opt;          // hybrid, 10% dynamic, BCL, b = 100
//   auto f = calu::core::getrf(a, opt);   // a now holds [L\U]
//   calu::core::getrs(a, f.ipiv, b);      // solve in place
#pragma once

#include "src/blas/blas.h"
#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/calu_dag.h"
#include "src/core/cholesky.h"
#include "src/core/getrf_pp.h"
#include "src/core/incpiv.h"
#include "src/core/solve.h"
#include "src/core/tslu.h"
#include "src/layout/grid.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/model/lu_cost.h"
#include "src/model/theorem1.h"
#include "src/noise/noise.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"
#include "src/trace/svg.h"
#include "src/trace/timeline.h"
#include "src/trace/trace.h"
#include "src/tune/autotuner.h"
