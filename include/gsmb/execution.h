// ExecutionOptions: the one place execution knobs live.
//
// The structs that configure a pipeline stage — MetaBlockingConfig,
// PruningContext, SessionOptions and ServingModelTraining — embed one shared
// ExecutionOptions, and the Engine threads a single instance from the
// JobSpec through every layer. Preparation (schemes::PrepareInputs) takes
// the same worker-thread count as a plain argument.
//
// Invariant: execution options never change results. Every parallel path
// in the library is bit-identical to its serial counterpart for any thread
// count.

#ifndef GSMB_API_EXECUTION_H_
#define GSMB_API_EXECUTION_H_

#include <cstddef>

namespace gsmb {

struct ExecutionOptions {
  /// Worker threads for blocking, feature extraction, classification and
  /// pruning. 1 = serial; results are identical for any value.
  size_t num_threads = 1;
};

}  // namespace gsmb

#endif  // GSMB_API_EXECUTION_H_
