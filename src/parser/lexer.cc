#include "parser/lexer.h"

namespace afp {

namespace {

// The grammar is ASCII; any other byte is a lexical error.
bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsWordChar(char c) { return IsLower(c) || IsUpper(c) || c == '_'; }

}  // namespace

Token Lexer::Next() {
  if (!status_.ok()) return Token{TokenKind::kError, {}, pos_};
  const std::size_t n = text_.size();
  while (pos_ < n) {
    const char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++pos_;
    } else if (c == '%') {  // line comment
      while (pos_ < n && text_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }
  const std::size_t start = pos_;
  if (start == n) return Token{TokenKind::kEof, {}, start};
  auto emit = [&](TokenKind kind, std::size_t len) {
    pos_ = start + len;
    return Token{kind, text_.substr(start, len), start};
  };

  const char c = text_[start];
  switch (c) {
    case '(': return emit(TokenKind::kLParen, 1);
    case ')': return emit(TokenKind::kRParen, 1);
    case ',': return emit(TokenKind::kComma, 1);
    case '.': return emit(TokenKind::kDot, 1);
    case ':':
      if (text_.substr(start, 2) == ":-") return emit(TokenKind::kIf, 2);
      return Error(start, "expected ':-'");
    case '\\':
      if (text_.substr(start, 2) == "\\+") return emit(TokenKind::kNot, 2);
      return Error(start, "expected '\\+'");
    case '\'': {  // quoted constant
      std::size_t j = start + 1;
      while (j < n && text_[j] != '\'' && text_[j] != '\n') ++j;
      if (j == n || text_[j] != '\'') {
        return Error(start, "unterminated quoted atom");
      }
      pos_ = j + 1;
      return Token{TokenKind::kIdent, text_.substr(start + 1, j - start - 1),
                   start};
    }
  }
  if (c == '-' || IsDigit(c)) {
    std::size_t j = start + (c == '-' ? 1 : 0);
    if (j == n || !IsDigit(text_[j])) {
      return Error(start, "expected digits after '-'");
    }
    while (j < n && IsDigit(text_[j])) ++j;
    return emit(TokenKind::kInteger, j - start);
  }
  if (IsWordChar(c)) {
    std::size_t j = start + 1;
    while (j < n && (IsWordChar(text_[j]) || IsDigit(text_[j]))) ++j;
    Token tok = emit(IsLower(c) ? TokenKind::kIdent : TokenKind::kVariable,
                     j - start);
    if (tok.text == "not") tok.kind = TokenKind::kNot;
    return tok;
  }
  return Error(start, std::string("unexpected character '") + c + "'");
}

const Status& Lexer::Drain() {
  while (true) {
    const TokenKind kind = Next().kind;
    if (kind == TokenKind::kEof || kind == TokenKind::kError) return status_;
  }
}

std::string Lexer::Position(std::size_t offset) const {
  std::size_t line = 1, line_start = 0;
  for (std::size_t i = 0; i < offset; ++i) {
    if (text_[i] != '\n') continue;
    ++line;
    line_start = i + 1;
  }
  return std::to_string(line) + ":" + std::to_string(offset - line_start + 1);
}

Token Lexer::Error(std::size_t offset, const std::string& msg) {
  status_ = Status::InvalidArgument("lex error at " + Position(offset) +
                                    ": " + msg);
  return Token{TokenKind::kError, {}, offset};
}

}  // namespace afp
