#pragma once

/// \file decode.hpp
/// Conversions between the model's packed tensors and physical
/// (denormalized) cell-centered fields — the bridge from the surrogate's
/// output back to oceanographic quantities for verification, evaluation,
/// and visualization.

#include <vector>

#include "core/surrogate.hpp"
#include "data/normalization.hpp"
#include "data/sample.hpp"

namespace coastal::core {

/// Unpack the T predicted frames of a SurrogateOutput (batch size 1) into
/// denormalized CenterFields on the original (un-padded) mesh.
std::vector<data::CenterFields> decode_prediction(
    const data::SampleSpec& spec, const SurrogateOutput& output,
    const data::Normalizer& norm);

/// Unpack one batch entry of a *batched* SurrogateOutput ([B, ...]) — the
/// serving scheduler's demultiplex step.  Reads the entry in place via its
/// batch offset (no per-entry slice copy), so fanning a coalesced forward
/// back out to its requests allocates no tensors.  Entry `b` decodes to
/// exactly what decode_prediction produces for a standalone B == 1 forward
/// of the same sample.
std::vector<data::CenterFields> decode_prediction_entry(
    const data::SampleSpec& spec, const SurrogateOutput& output, int64_t b,
    const data::Normalizer& norm);

/// Same unpacking for a sample's ground-truth target tensors.
std::vector<data::CenterFields> decode_target(const data::SampleSpec& spec,
                                              const data::Sample& sample,
                                              const data::Normalizer& norm);

}  // namespace coastal::core
