#include "plan.h"

namespace swordfish::core {

const char*
compileFailureName(CompileFailure failure)
{
    switch (failure) {
      case CompileFailure::None: return "none";
      case CompileFailure::UnknownBackend: return "unknown_backend";
      case CompileFailure::ShapeMismatch: return "shape_mismatch";
      case CompileFailure::InvalidDeviceConfig:
        return "invalid_device_config";
      case CompileFailure::InvalidRemapFraction:
        return "invalid_remap_fraction";
      case CompileFailure::ScenarioMismatch: return "scenario_mismatch";
      case CompileFailure::InvalidNoiseSpec: return "invalid_noise_spec";
      case CompileFailure::InvalidEnsemble: return "invalid_ensemble";
    }
    return "unknown";
}

} // namespace swordfish::core
