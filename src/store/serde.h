// Shared binary codecs for store payloads: interned strings, transform
// steps, feature matrices, verifier reports and resource summaries.
//
// Step encodings reference stage names through a per-file StringTable, so a
// 100k-record log stores each stage name once and each step points at it
// with a 1-2 byte varint. Decoders validate every table reference and kind
// discriminator; a malformed step fails the reader instead of producing a
// half-initialized Step, and a decoded count larger than the bytes left fails
// before anything is sized from it.
#ifndef ANSOR_SRC_STORE_SERDE_H_
#define ANSOR_SRC_STORE_SERDE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/program_verifier.h"
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

// Verifier reports serialize as, per check, a verdict byte and the
// diagnostics as table references; resource summaries as the lowered flag,
// the footprint, and per loop a stage reference, an annotation byte and the
// extent. Decoders fail the reader on a verdict or annotation byte outside
// its enum.
void EncodeVerifierReport(const VerifierReport& report, StringTable* strings,
                          ByteWriter* w);
bool DecodeVerifierReport(ByteReader* r, const std::vector<std::string>& strings,
                          VerifierReport* out);
void EncodeResourceSummary(const ResourceSummary& summary, StringTable* strings,
                           ByteWriter* w);
bool DecodeResourceSummary(ByteReader* r, const std::vector<std::string>& strings,
                           ResourceSummary* out);

}  // namespace ansor

#endif  // ANSOR_SRC_STORE_SERDE_H_
