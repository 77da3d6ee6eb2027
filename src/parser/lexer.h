#ifndef AFP_PARSER_LEXER_H_
#define AFP_PARSER_LEXER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace afp {

/// Token kinds produced by the Lexer.
enum class TokenKind : std::uint8_t {
  kIdent,     // lowercase-initial identifier or quoted atom: p, edge, 'A b'
  kVariable,  // uppercase- or underscore-initial identifier: X, _G1
  kInteger,   // 0, 42, -7  (treated as a constant symbol)
  kLParen, kRParen, kComma, kDot,
  kIf,        // ":-"
  kNot,       // "not" or "\+"
  kEof,
  kError,     // lexical error; Lexer::Drain() returns the diagnostic
};

/// A token: a view of its source text (a quoted atom without its quotes)
/// and the byte offset where it starts.
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;
  std::size_t offset = 0;
};

/// Pull lexer: Next() scans one token straight off the text, nothing is
/// buffered or copied. `%` starts a line comment. The 1-based line:column
/// of a diagnostic is computed from the byte offset only when it is built.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The next token; kEof at end of input and kError on a lexical problem,
  /// either one again on every later call.
  Token Next();
  /// Scans to the end of the text and returns OK, or the lexical error
  /// that stopped the scan ("lex error at L:C: ...").
  const Status& Drain();
  /// "line:column" of byte `offset` of the text.
  std::string Position(std::size_t offset) const;

 private:
  Token Error(std::size_t offset, const std::string& msg);

  std::string_view text_;
  std::size_t pos_ = 0;
  Status status_;
};

}  // namespace afp

#endif  // AFP_PARSER_LEXER_H_
