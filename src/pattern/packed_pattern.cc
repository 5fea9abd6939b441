#include "pattern/packed_pattern.h"

#include <cassert>

namespace coverage {

namespace {
constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
}  // namespace

StatusOr<PatternCodec> PatternCodec::Build(const Schema& schema) {
  PatternCodec codec;
  const int d = schema.num_attributes();
  codec.fields_.reserve(static_cast<std::size_t>(d));
  codec.cardinalities_ = schema.cardinalities();

  int word = 0;
  int shift = 0;
  std::size_t total_bits = 0;
  for (int attr = 0; attr < d; ++attr) {
    const int c = schema.cardinality(attr);
    assert(c >= 1);
    // c + 1 codes: values 0..c-1 plus the all-ones wildcard.
    const int bits = std::bit_width(static_cast<unsigned>(c));
    total_bits += static_cast<std::size_t>(bits);
    if (shift + bits > 64) {  // fields never straddle a word boundary
      ++word;
      shift = 0;
    }
    if (word >= PackedPattern::kMaxWords) {
      return Status::InvalidArgument(
          "schema needs " + std::to_string(total_bits) +
          "+ packed bits across " + std::to_string(d) +
          " attributes, over the " +
          std::to_string(PackedPattern::kMaxWords * 64) +
          "-bit packed pattern limit");
    }
    Field f;
    f.word = static_cast<std::uint8_t>(word);
    f.shift = static_cast<std::uint8_t>(shift);
    f.bits = static_cast<std::uint8_t>(bits);
    f.low_mask = (bits == 64) ? ~std::uint64_t{0}
                              : ((std::uint64_t{1} << bits) - 1);
    codec.fields_.push_back(f);
    shift += bits;
  }
  codec.num_words_ = d == 0 ? 1 : word + 1;

  codec.attr_of_bit_.assign(
      static_cast<std::size_t>(codec.num_words_) * 64, std::int16_t{-1});
  for (int attr = 0; attr < d; ++attr) {
    const Field& f = codec.fields_[static_cast<std::size_t>(attr)];
    codec.layout_[f.word] |= f.low_mask << f.shift;
    codec.first_bits_[f.word] |= std::uint64_t{1} << f.shift;
    codec.attr_of_bit_[static_cast<std::size_t>(f.word) * 64 + f.shift] =
        static_cast<std::int16_t>(attr);
  }
  return codec;
}

PackedPattern PatternCodec::Root() const {
  PackedPattern root;
  for (int w = 0; w < num_words_; ++w) root.words_[w] = layout_[w];
  return root;
}

PackedPattern PatternCodec::Encode(const Pattern& pattern) const {
  assert(pattern.num_attributes() == num_attributes());
  PackedPattern out;
  int level = 0;
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    const Value v = pattern.cell(attr);
    if (v == kWildcard) {
      out.words_[f.word] |= f.low_mask << f.shift;
    } else {
      out.words_[f.word] |= static_cast<std::uint64_t>(v) << f.shift;
      out.det_[f.word] |= f.low_mask << f.shift;
      ++level;
    }
  }
  out.level_ = static_cast<std::int16_t>(level);
  return out;
}

PackedPattern PatternCodec::EncodeTuple(std::span<const Value> tuple) const {
  assert(static_cast<int>(tuple.size()) == num_attributes());
  PackedPattern out;
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    out.words_[f.word] |= static_cast<std::uint64_t>(tuple[attr]) << f.shift;
    out.det_[f.word] |= f.low_mask << f.shift;
  }
  out.level_ = static_cast<std::int16_t>(num_attributes());
  return out;
}

Pattern PatternCodec::Decode(const PackedPattern& packed) const {
  std::vector<Value> cells(static_cast<std::size_t>(num_attributes()));
  for (int attr = 0; attr < num_attributes(); ++attr) {
    cells[static_cast<std::size_t>(attr)] = cell(packed, attr);
  }
  return Pattern(std::move(cells));
}

std::vector<Pattern> PatternCodec::DecodeAll(
    std::span<const PackedPattern> packed) const {
  std::vector<Pattern> out;
  out.reserve(packed.size());
  for (const PackedPattern& p : packed) out.push_back(Decode(p));
  return out;
}

int PatternCodec::RightmostDeterministic(const PackedPattern& p) const {
  for (int w = num_words_ - 1; w >= 0; --w) {
    const std::uint64_t bits = p.det_[w] & first_bits_[w];
    if (bits != 0) {
      const int bit = 63 - std::countl_zero(bits);
      return attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)];
    }
  }
  return -1;
}

int PatternCodec::RightmostWildcard(const PackedPattern& p) const {
  for (int w = num_words_ - 1; w >= 0; --w) {
    const std::uint64_t bits = (layout_[w] & ~p.det_[w]) & first_bits_[w];
    if (bits != 0) {
      const int bit = 63 - std::countl_zero(bits);
      return attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)];
    }
  }
  return -1;
}

std::string PatternCodec::ToString(const PackedPattern& p) const {
  std::string out;
  out.reserve(static_cast<std::size_t>(num_attributes()));
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Value v = cell(p, attr);
    if (v == kWildcard) {
      out.push_back('X');
    } else if (v < 36) {
      out.push_back(kDigits[v]);
    } else {
      out.push_back('(');
      out += std::to_string(v);
      out.push_back(')');
    }
  }
  return out;
}

std::string PatternCodec::ToLabelledString(const PackedPattern& p,
                                           const Schema& schema) const {
  assert(schema.num_attributes() == num_attributes());
  std::string out;
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Value v = cell(p, attr);
    if (v == kWildcard) continue;
    if (!out.empty()) out += ", ";
    out += schema.attribute(attr).name;
    out += '=';
    out += schema.attribute(attr).value_names[static_cast<std::size_t>(v)];
  }
  return out.empty() ? "<any>" : out;
}

bool PatternCodec::Less(const PackedPattern& a, const PackedPattern& b) const {
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Value va = cell(a, attr);
    const Value vb = cell(b, attr);
    if (va != vb) return va < vb;  // kWildcard == -1 sorts first
  }
  return false;
}

}  // namespace coverage
