// Module parameter checkpoints: one binary format, "carol-params-bin" v1.
//   header "carol-params-bin" v1, u64 count,
//   per parameter: string name, u64 rows, u64 cols, doubles (row-major)
// Doubles are written as raw IEEE-754 bit patterns (common/binio.h), so
// Save -> Load round-trips are bit-exact, NaN and infinities included —
// the property the serving layer's snapshot/restore bit-identity
// guarantee rests on. Used for the GON weights of service snapshots,
// ResilienceService::LoadWeights/SaveWeights and the bench harness's
// trained-GON hand-off.
#ifndef CAROL_NN_SERIALIZE_H_
#define CAROL_NN_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "nn/layers.h"

namespace carol::nn {

// Writes all parameters of `module` as one image. Throws
// std::runtime_error on IO failure.
void SaveParametersBinary(Module& module, std::ostream& out);

// Loads an image written by SaveParametersBinary. All or nothing: the
// whole image is read and checked against the module's parameter names,
// order and shapes before any parameter is assigned, so a foreign,
// mismatched or truncated image throws common::BinaryFormatError and
// leaves the module bit-unchanged.
void LoadParametersBinary(Module& module, std::istream& in);

// File wrappers over the same image. Both also throw std::runtime_error
// when `path` cannot be opened.
void SaveParameters(Module& module, const std::string& path);
void LoadParameters(Module& module, const std::string& path);

// In-memory weight clone between two architecturally identical modules
// (same parameter names, order and shapes); throws std::runtime_error on
// any mismatch. The serving layer uses this to broadcast master weights
// into per-worker GON replicas without touching disk.
void CopyParameters(Module& from, Module& to);

}  // namespace carol::nn

#endif  // CAROL_NN_SERIALIZE_H_
