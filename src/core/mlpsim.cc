#include "mlpsim.hh"

namespace mlpsim::core {

Status
AnnotationOptions::validate() const
{
    MLPSIM_RETURN_IF_ERROR(
        memory::validateConfig(hierarchy).withContext("hierarchy"));
    MLPSIM_RETURN_IF_ERROR(
        branch::validateConfig(branch).withContext("branch predictor"));
    MLPSIM_RETURN_IF_ERROR(
        predictor::validateConfig(value).withContext("value predictor"));
    return Status::okStatus();
}

Expected<MlpResult>
tryRunMlp(const MlpConfig &config, const WorkloadContext &workload)
{
    MLPSIM_RETURN_IF_ERROR(
        config.validate().withContext("machine '", config.label(), "'"));
    if (!workload.hasTrace() || !workload.misses || !workload.branches) {
        return Status::failedPrecondition(
            "workload context is incomplete (missing trace or "
            "annotations)");
    }
    if (config.valuePrediction && !workload.values) {
        return Status::failedPrecondition(
            "machine '", config.label(), "' needs value-prediction "
            "annotations; build the trace with "
            "AnnotationOptions::buildValues");
    }
    switch (config.mode) {
      case CoreMode::InOrderStallOnMiss:
      case CoreMode::InOrderStallOnUse:
        return runInOrder(config, workload);
      case CoreMode::OutOfOrder:
      case CoreMode::Runahead:
        break;
    }
    return EpochEngine(config, workload).run();
}

MlpResult
runMlp(const MlpConfig &config, const WorkloadContext &workload)
{
    return tryRunMlp(config, workload).orFatal();
}

} // namespace mlpsim::core
