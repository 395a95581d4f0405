// Shared binary codecs for store payloads: interned strings, transform
// steps, and feature matrices.
//
// Step encodings reference stage names through a per-file StringTable, so a
// 100k-record log stores each stage name once and each step points at it
// with a 1-2 byte varint. Decoders validate every table reference and kind
// discriminator; a malformed step fails the reader instead of producing a
// half-initialized Step.
#ifndef ANSOR_SRC_STORE_SERDE_H_
#define ANSOR_SRC_STORE_SERDE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/features/feature_matrix.h"
#include "src/ir/steps.h"
#include "src/store/bytes.h"

namespace ansor {

// Insertion-ordered string interner: Intern returns a stable index, Encode
// writes the table, Decode reads it back in the same order.
class StringTable {
 public:
  uint64_t Intern(const std::string& s);
  const std::vector<std::string>& strings() const { return strings_; }

  void Encode(ByteWriter* w) const;
  // Replaces the contents; fails the reader on malformed input.
  bool Decode(ByteReader* r);

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint64_t> index_;
};

// Binary step codec. Stage names go through the table; integer fields are
// zigzag varints so the common small values take one byte.
void EncodeStep(const Step& step, StringTable* strings, ByteWriter* w);
// Decodes one step against an already-decoded table; nullopt (and a failed
// reader) on malformed input — unknown kind, out-of-range string reference,
// or truncation.
std::optional<Step> DecodeStep(ByteReader* r, const std::vector<std::string>& strings);

// Feature matrices serialize as dim + row count + raw f32 data + per-row
// stage references (bit-exact round trip; empty matrices stay empty).
void EncodeFeatureMatrix(const FeatureMatrix& m, StringTable* strings, ByteWriter* w);
bool DecodeFeatureMatrix(ByteReader* r, const std::vector<std::string>& strings,
                         FeatureMatrix* out);

}  // namespace ansor

#endif  // ANSOR_SRC_STORE_SERDE_H_
