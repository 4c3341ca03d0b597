//===- obs/Json.h - Minimal JSON value, parser, and writer -----------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON library for the observability layer: the
/// `--report` run reports, the JSONL/Chrome trace exporters, and the
/// tests that re-parse both. No external dependency (the container may
/// not have one); covers the full JSON grammar minus surrogate-pair
/// \u escapes, which none of our producers emit.
///
//===----------------------------------------------------------------------===//

#ifndef P_OBS_JSON_H
#define P_OBS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace p::obs {

/// A JSON value. Objects keep insertion order (schema output stays
/// readable and diffable); lookup is linear, which is fine at our
/// sizes.
class Json {
public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : Ty(Type::Null) {}
  Json(bool B) : Ty(Type::Bool), BoolV(B) {}
  Json(double N) : Ty(Type::Number), NumV(N) {}
  Json(int64_t N) : Ty(Type::Number), NumV(static_cast<double>(N)) {}
  Json(uint64_t N) : Ty(Type::Number), NumV(static_cast<double>(N)) {}
  Json(int N) : Ty(Type::Number), NumV(N) {}
  Json(const char *S) : Ty(Type::String), StrV(S) {}
  Json(std::string S) : Ty(Type::String), StrV(std::move(S)) {}

  static Json array() {
    Json J;
    J.Ty = Type::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.Ty = Type::Object;
    return J;
  }

  Type type() const { return Ty; }
  bool isNull() const { return Ty == Type::Null; }
  bool isBool() const { return Ty == Type::Bool; }
  bool isNumber() const { return Ty == Type::Number; }
  bool isString() const { return Ty == Type::String; }
  bool isArray() const { return Ty == Type::Array; }
  bool isObject() const { return Ty == Type::Object; }

  bool asBool() const { return BoolV; }
  double asNumber() const { return NumV; }
  int64_t asInt() const { return static_cast<int64_t>(NumV); }
  const std::string &asString() const { return StrV; }

  /// Array access.
  size_t size() const {
    return Ty == Type::Array ? Items.size() : Members.size();
  }
  const Json &at(size_t I) const { return Items[I]; }
  void push(Json V) { Items.push_back(std::move(V)); }

  /// Object access. get() returns a shared null for missing keys.
  void set(const std::string &Key, Json V);
  const Json *find(const std::string &Key) const;
  const Json &get(const std::string &Key) const;
  bool has(const std::string &Key) const { return find(Key) != nullptr; }
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  /// Serializes; \p Indent > 0 pretty-prints with that many spaces.
  std::string str(int Indent = 0) const;

  /// Parses \p Text. Returns false (and fills \p ErrorMsg with a
  /// position-annotated message) on malformed input.
  static bool parse(const std::string &Text, Json &Out,
                    std::string *ErrorMsg = nullptr);

private:
  Type Ty;
  bool BoolV = false;
  double NumV = 0;
  std::string StrV;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Members;

  void write(std::string &Out, int Indent, int Depth) const;
};

/// Escapes \p S as the *inside* of a JSON string literal (no quotes).
std::string jsonEscape(const std::string &S);

} // namespace p::obs

#endif // P_OBS_JSON_H
