/**
 * @file
 * Model checkpointing: save/load a GnnModel's trainable parameters to a
 * small self-describing binary format, so trained models survive
 * process restarts and can be shipped between the training and
 * inference examples.
 *
 * Format (little-endian):
 *   magic "GRPH" | u32 version | u32 numLayers |
 *   per layer: u64 inFeatures | u64 outFeatures | u8 relu |
 *              weights row-major (logical cols only) | bias
 */

#pragma once

#include <string>

#include "gnn/gnn_model.h"

namespace graphite {

/** Serialize @p model's parameters to @p path. fatal() on I/O errors. */
void saveModel(const GnnModel &model, const std::string &path);

/**
 * Load parameters saved by saveModel() into @p model. The layer count
 * and widths must match the model's architecture; fatal() otherwise.
 * Parameters are installed only after the whole file has been read, so
 * a failed load leaves @p model unchanged.
 */
void loadModel(GnnModel &model, const std::string &path);

/** True if @p path exists and starts with the checkpoint magic. */
bool isCheckpointFile(const std::string &path);

} // namespace graphite
