#include "abdm/lexer.h"

#include <cctype>
#include <climits>

#include "common/strings.h"

namespace mlds::abdm {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

std::string Quoted(std::string_view text) {
  std::string out = "'";
  out.append(text);
  out.push_back('\'');
  return out;
}

constexpr std::string_view kTwoCharPuncts[] = {"<=", ">=", "<>", "!=", ".."};
constexpr std::string_view kOneCharPuncts = "(),;.*?=<>:+";

std::optional<RelOp> RelOpOf(const Token& t) {
  if (t.kind != TokenKind::kPunct) return std::nullopt;
  if (t.text == "=") return RelOp::kEq;
  if (t.text == "!=" || t.text == "<>") return RelOp::kNe;
  if (t.text == "<") return RelOp::kLt;
  if (t.text == "<=") return RelOp::kLe;
  if (t.text == ">") return RelOp::kGt;
  if (t.text == ">=") return RelOp::kGe;
  return std::nullopt;
}

}  // namespace

std::string Token::Describe() const {
  if (kind == TokenKind::kEnd) return "end of input";
  // A string's spelling already carries its quotes.
  if (kind == TokenKind::kString) return std::string(text);
  return Quoted(text);
}

bool Scanner::IsWordChar(char c) const {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         dialect_.word_chars.find(c) != std::string_view::npos;
}

Status Scanner::Next(Token* token) {
  while (pos_ < text_.size()) {
    if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    } else if (text_.substr(pos_, 2) == "--") {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }
  const size_t start = pos_;
  auto emit = [&](TokenKind kind) {
    token->kind = kind;
    token->text = text_.substr(start, pos_ - start);
    return Status::OK();
  };
  if (pos_ >= text_.size()) return emit(TokenKind::kEnd);

  const char c = text_[pos_];
  if (c == '\'' || c == '"') {
    for (++pos_; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] != c) continue;
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == c) {
        ++pos_;  // a doubled delimiter is an escaped quote
        continue;
      }
      ++pos_;
      return emit(TokenKind::kString);
    }
    return Status::ParseError("unterminated string literal in " +
                              std::string(dialect_.name));
  }
  if (IsDigit(c) ||
      (c == '-' && pos_ + 1 < text_.size() && IsDigit(text_[pos_ + 1]))) {
    for (++pos_; pos_ < text_.size(); ++pos_) {
      const char d = text_[pos_];
      const char prev = text_[pos_ - 1];
      const bool fraction = d == '.' && text_.substr(pos_, 2) != "..";
      const bool exponent = d == 'e' || d == 'E' ||
                            ((d == '+' || d == '-') &&
                             (prev == 'e' || prev == 'E'));
      if (!IsDigit(d) && !fraction && !exponent) break;
    }
    return emit(TokenKind::kNumber);
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    for (++pos_; pos_ < text_.size() && IsWordChar(text_[pos_]); ++pos_) {
    }
    return emit(TokenKind::kWord);
  }
  for (std::string_view punct : kTwoCharPuncts) {
    if (text_.substr(pos_, 2) == punct) {
      pos_ += 2;
      return emit(TokenKind::kPunct);
    }
  }
  if (kOneCharPuncts.find(c) != std::string_view::npos) {
    ++pos_;
    return emit(TokenKind::kPunct);
  }
  return Status::ParseError(std::string("unexpected character '") + c +
                            "' in " + std::string(dialect_.name));
}

Result<int> CountOf(const Token& token, std::string_view what) {
  if (token.kind != TokenKind::kNumber || !token.value.is_integer() ||
      token.value.AsInteger() < 0 || token.value.AsInteger() > INT_MAX) {
    return Status::ParseError("expected " + std::string(what) +
                              " (a non-negative integer), got " +
                              token.Describe());
  }
  return static_cast<int>(token.value.AsInteger());
}

Result<TokenCursor> TokenCursor::Open(std::string_view text,
                                      const Dialect& dialect) {
  Scanner scanner(text, dialect);
  std::vector<Token> tokens;
  do {
    Token token;
    MLDS_RETURN_IF_ERROR(scanner.Next(&token));
    if (token.IsLiteral()) token.value = Value::Parse(token.text);
    tokens.push_back(std::move(token));
  } while (tokens.back().kind != TokenKind::kEnd);
  return TokenCursor(std::move(tokens));
}

bool TokenCursor::PeekKeyword(std::string_view word, size_t ahead) const {
  const Token& t = Peek(ahead);
  return t.kind == TokenKind::kWord && EqualsIgnoreCase(t.text, word);
}

bool TokenCursor::ConsumeKeyword(std::string_view word) {
  if (!PeekKeyword(word)) return false;
  Advance();
  return true;
}

Status TokenCursor::ExpectKeyword(std::string_view word) {
  if (ConsumeKeyword(word)) return Status::OK();
  return Unexpected(Quoted(word));
}

bool TokenCursor::Consume(std::string_view punct) {
  if (!Peek().Is(punct)) return false;
  Advance();
  return true;
}

Status TokenCursor::Expect(std::string_view punct, std::string_view context) {
  if (Consume(punct)) return Status::OK();
  std::string what = Quoted(punct);
  if (!context.empty()) {
    what.push_back(' ');
    what.append(context);
  }
  return Unexpected(what);
}

Result<std::string> TokenCursor::ExpectName(std::string_view what) {
  if (Peek().kind != TokenKind::kWord) return Unexpected(what);
  return std::string(Advance().text);
}

Result<int> TokenCursor::ExpectCount(std::string_view what) {
  MLDS_ASSIGN_OR_RETURN(int count, CountOf(Peek(), what));
  Advance();
  return count;
}

bool TokenCursor::PeekRelOp(size_t ahead) const {
  return RelOpOf(Peek(ahead)).has_value();
}

std::optional<RelOp> TokenCursor::ConsumeRelOp() {
  std::optional<RelOp> op = RelOpOf(Peek());
  if (op) Advance();
  return op;
}

Status TokenCursor::Unexpected(std::string_view what) const {
  return Status::ParseError("expected " + std::string(what) + ", got " +
                            Peek().Describe());
}

}  // namespace mlds::abdm
