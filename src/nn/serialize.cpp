#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/binio.h"

namespace carol::nn {

void SaveParametersBinary(Module& module, std::ostream& out) {
  common::BinaryWriter w(out);
  const auto params = module.Parameters();
  w.Header("carol-params-bin", 1);
  w.U64(params.size());
  for (const Parameter* p : params) {
    w.String(p->name);
    w.U64(p->value.rows());
    w.U64(p->value.cols());
    w.Doubles(p->value.flat());
  }
  w.CheckOk("SaveParametersBinary");
}

void LoadParametersBinary(Module& module, std::istream& in) {
  common::BinaryReader r(in);
  r.Header("carol-params-bin", 1);
  auto params = module.Parameters();
  const std::uint64_t count = r.U64();
  if (count != params.size()) {
    throw common::BinaryFormatError(
        "LoadParametersBinary: parameter count mismatch");
  }
  // Read and check the whole image before assigning anything, so a bad
  // image never leaves the module half overwritten.
  std::vector<std::vector<double>> values;
  values.reserve(params.size());
  for (const Parameter* p : params) {
    const std::string name = r.String();
    const std::uint64_t rows = r.U64();
    const std::uint64_t cols = r.U64();
    if (name != p->name || rows != p->value.rows() ||
        cols != p->value.cols()) {
      throw common::BinaryFormatError("LoadParametersBinary: mismatch at " +
                                      p->name);
    }
    values.push_back(r.Doubles());
    if (values.back().size() != p->value.flat().size()) {
      throw common::BinaryFormatError(
          "LoadParametersBinary: element count mismatch at " + p->name);
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(values[i].begin(), values[i].end(),
              params[i]->value.flat().begin());
  }
}

void SaveParameters(Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("SaveParameters: cannot open " + path);
  SaveParametersBinary(module, out);
  // A small image sits in the stream buffer until the close flushes it,
  // so a full disk or an I/O error shows only here.
  out.close();
  if (!out) throw std::runtime_error("SaveParameters: cannot write " + path);
}

void LoadParameters(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("LoadParameters: cannot open " + path);
  LoadParametersBinary(module, in);
}

void CopyParameters(Module& from, Module& to) {
  const auto src = from.Parameters();
  auto dst = to.Parameters();
  if (src.size() != dst.size()) {
    throw std::runtime_error("CopyParameters: parameter count mismatch");
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i]->name != dst[i]->name ||
        src[i]->value.rows() != dst[i]->value.rows() ||
        src[i]->value.cols() != dst[i]->value.cols()) {
      throw std::runtime_error("CopyParameters: mismatch at " +
                               dst[i]->name);
    }
    dst[i]->value.CopyFrom(src[i]->value);
  }
}

}  // namespace carol::nn
