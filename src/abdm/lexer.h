#ifndef MLDS_ABDM_LEXER_H_
#define MLDS_ABDM_LEXER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdm/query.h"
#include "abdm/value.h"
#include "common/result.h"

namespace mlds::abdm {

/// The one lexical grammar of every MLDS language: SQL, CODASYL-DML,
/// Daplex (queries and DDL), DL/I, ABDL, and the relational,
/// hierarchical and network DDLs (DESIGN.md, "One lexer").
///
///   word    letter or '_', then letters, digits, '_' and the dialect's
///           extra word characters
///   string  '...' or "..."; a doubled delimiter is an escaped quote
///   number  ['-'] digit, then digits, '.' (not before ".."), 'e'/'E'
///           and a sign right after 'e'/'E'
///   punct   <= >= <> != ..  or one of  ( ) , ; . * ? = < > : +
///
/// Whitespace separates tokens and "--" comments run to the end of the
/// line. A literal's value is Value::Parse of its spelling.
enum class TokenKind { kEnd, kWord, kString, kNumber, kPunct };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// The source spelling (quotes included for strings); empty at the end.
  std::string_view text;
  /// The literal's value for kString and kNumber; null otherwise.
  Value value;

  bool Is(std::string_view punct) const {
    return kind == TokenKind::kPunct && text == punct;
  }
  bool IsLiteral() const {
    return kind == TokenKind::kString || kind == TokenKind::kNumber;
  }
  /// The token as error text: its quoted spelling, or "end of input".
  std::string Describe() const;
};

/// The two per-language constants: the display name error text uses,
/// and the characters a word may contain beyond letters, digits and '_'
/// (ABDL's "-." for RETRIEVE-COMMON and dotted attribute names).
struct Dialect {
  std::string_view name;
  std::string_view word_chars = {};
};

/// Scans tokens one at a time without computing literal values: the
/// translation-cache key reads spellings only.
class Scanner {
 public:
  Scanner(std::string_view text, Dialect dialect)
      : text_(text), dialect_(dialect) {}

  /// Sets the next token's kind and spelling (not its value); kEnd once
  /// the text is exhausted. Fails on an unexpected character or an
  /// unterminated string.
  Status Next(Token* token);

 private:
  bool IsWordChar(char c) const;

  std::string_view text_;
  Dialect dialect_;
  size_t pos_ = 0;
};

/// The value of a non-negative integer literal that fits an int (a DDL
/// length); anything else is a parse error naming `what`.
Result<int> CountOf(const Token& token, std::string_view what);

/// Reads a token stream the way every recursive-descent parser does.
/// Tokens view the lexed text, which must outlive the cursor.
class TokenCursor {
 public:
  /// Lexes `text` into tokens with literal values.
  static Result<TokenCursor> Open(std::string_view text,
                                  const Dialect& dialect);

  /// The token `ahead` past the current one; the end token past the end.
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  /// Returns the current token and moves past it (never past the end).
  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  /// Keywords are words matched case-insensitively.
  bool PeekKeyword(std::string_view word, size_t ahead = 0) const;
  bool ConsumeKeyword(std::string_view word);
  Status ExpectKeyword(std::string_view word);

  /// Consumes the punctuation `punct` if it is next.
  bool Consume(std::string_view punct);
  /// Requires `punct`; `context` (e.g. "closing modifier") follows it in
  /// the error text.
  Status Expect(std::string_view punct, std::string_view context = {});

  /// Requires a word and returns its spelling.
  Result<std::string> ExpectName(std::string_view what);
  /// Requires a CountOf literal.
  Result<int> ExpectCount(std::string_view what);

  /// True if the token `ahead` is one of = != <> < <= > >=.
  bool PeekRelOp(size_t ahead = 0) const;
  /// Consumes = != <> < <= > >= as its RelOp.
  std::optional<RelOp> ConsumeRelOp();

  /// "expected <what>, got <next token>".
  Status Unexpected(std::string_view what) const;

 private:
  /// `tokens` ends with the one kEnd token.
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_LEXER_H_
