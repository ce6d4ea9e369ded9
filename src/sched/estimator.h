/**
 * @file
 * The scheduler-facing runtime-estimate interface.
 *
 * The paper's scheduling layer conditions on "runtime characteristic:
 * expected duration" (Table 1). User-provided time limits overestimate
 * runtimes by 1.5-4x in practice, which makes backfill reservations
 * loose and SJF orderings wrong, so policies that want a tighter bound
 * read it through this interface. Its one implementation is
 * `predict::RuntimeModel`, which every stack owns and feeds with
 * completions; the policy zoo sees only these two calls.
 */
#pragma once

#include "common/time.h"
#include "workload/job.h"

namespace tacc::sched {

class RuntimeEstimator
{
  public:
    virtual ~RuntimeEstimator() = default;

    /**
     * Predicted total runtime of a job, never exceeding the user's time
     * limit (the system kills at the limit, so it is a hard bound).
     * Without history for the job, returns the time limit.
     */
    virtual Duration predict(const workload::Job &job) const = 0;

    /**
     * Predicted time to finish the *remaining* iterations (elastic
     * shrink-victim selection wants residual work, not total runtime).
     */
    virtual Duration predict_remaining(const workload::Job &job) const = 0;
};

} // namespace tacc::sched
