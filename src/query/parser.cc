#include "query/parser.h"

#include <cctype>
#include <limits>
#include <vector>

#include "common/strings.h"

namespace scads {

namespace {

enum class TokenType {
  kIdent,
  kInteger,
  kDot,
  kStar,
  kComma,
  kEq,
  kLt,
  kGt,
  kLe,
  kGe,
  kParam,  // <name>
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;
  size_t position;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
          ++pos_;
        }
        tokens.push_back({TokenType::kIdent, std::string(text_.substr(start, pos_ - start)),
                          start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens.push_back({TokenType::kInteger, std::string(text_.substr(start, pos_ - start)),
                          start});
        continue;
      }
      switch (c) {
        case '.':
          tokens.push_back({TokenType::kDot, ".", pos_++});
          continue;
        case '*':
          tokens.push_back({TokenType::kStar, "*", pos_++});
          continue;
        case ',':
          tokens.push_back({TokenType::kComma, ",", pos_++});
          continue;
        case '=':
          tokens.push_back({TokenType::kEq, "=", pos_++});
          continue;
        case '>':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokenType::kGe, ">=", pos_});
            pos_ += 2;
          } else {
            tokens.push_back({TokenType::kGt, ">", pos_++});
          }
          continue;
        case '<': {
          // '<ident>' is a parameter; '<=' and bare '<' are operators.
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokenType::kLe, "<=", pos_});
            pos_ += 2;
            continue;
          }
          size_t scan = pos_ + 1;
          while (scan < text_.size() &&
                 (std::isalnum(static_cast<unsigned char>(text_[scan])) || text_[scan] == '_')) {
            ++scan;
          }
          if (scan > pos_ + 1 && scan < text_.size() && text_[scan] == '>') {
            tokens.push_back(
                {TokenType::kParam, std::string(text_.substr(pos_ + 1, scan - pos_ - 1)), pos_});
            pos_ = scan + 1;
          } else {
            tokens.push_back({TokenType::kLt, "<", pos_++});
          }
          continue;
        }
        default:
          return InvalidArgumentError(
              StrFormat("unexpected character '%c' at offset %zu", c, pos_));
      }
    }
    tokens.push_back({TokenType::kEnd, "", pos_});
    return tokens;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens, std::string_view text)
      : tokens_(std::move(tokens)), text_(text) {}

  Result<QueryTemplate> Run() {
    QueryTemplate out;
    out.text.assign(text_);
    SCADS_RETURN_IF_ERROR(ExpectKeyword("select"));
    Result<FieldRef> select = ParseFieldStar();
    if (!select.ok()) return select.status();
    out.select_alias = select->alias;

    SCADS_RETURN_IF_ERROR(ExpectKeyword("from"));
    Result<TableRef> from = ParseTableRef();
    if (!from.ok()) return from.status();
    out.from = *from;

    while (PeekKeyword("join")) {
      Advance();
      Result<TableRef> table = ParseTableRef();
      if (!table.ok()) return table.status();
      SCADS_RETURN_IF_ERROR(ExpectKeyword("on"));
      Result<FieldRef> left = ParseFieldRef();
      if (!left.ok()) return left.status();
      SCADS_RETURN_IF_ERROR(Expect(TokenType::kEq, "="));
      Result<FieldRef> right = ParseFieldRef();
      if (!right.ok()) return right.status();
      out.joins.push_back(JoinClause{*table, *left, *right});
    }

    if (PeekKeyword("where")) {
      Advance();
      for (;;) {
        Result<OrGroup> group = ParseOrGroup();
        if (!group.ok()) return group.status();
        out.where.push_back(std::move(group).value());
        if (PeekKeyword("and")) {
          Advance();
          continue;
        }
        break;
      }
    }

    if (PeekKeyword("order")) {
      Advance();
      SCADS_RETURN_IF_ERROR(ExpectKeyword("by"));
      Result<FieldRef> field = ParseFieldRef();
      if (!field.ok()) return field.status();
      out.order_by = *field;
      if (PeekKeyword("asc")) {
        Advance();
      } else if (PeekKeyword("desc")) {
        Advance();
        out.descending = true;
      }
    }

    if (PeekKeyword("limit")) {
      Advance();
      if (Peek().type != TokenType::kInteger) {
        return Error("LIMIT expects an integer");
      }
      out.limit = std::stoll(Peek().text);
      Advance();
    }

    // WITH STALENESS 5s, DEADLINE 50ms — per-template execution bounds.
    if (PeekKeyword("with")) {
      Advance();
      for (;;) {
        if (PeekKeyword("staleness")) {
          Advance();
          if (out.staleness_bound.has_value()) return Error("duplicate STALENESS bound");
          Result<Duration> bound = ParseDurationLiteral();
          if (!bound.ok()) return bound.status();
          if (*bound <= 0) return Error("STALENESS must be positive");
          out.staleness_bound = *bound;
        } else if (PeekKeyword("deadline")) {
          Advance();
          if (out.deadline.has_value()) return Error("duplicate DEADLINE bound");
          Result<Duration> bound = ParseDurationLiteral();
          if (!bound.ok()) return bound.status();
          if (*bound <= 0) return Error("DEADLINE must be positive");
          out.deadline = *bound;
        } else {
          return Error("expected STALENESS or DEADLINE in WITH clause");
        }
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }

    if (Peek().type != TokenType::kEnd) {
      return Error(StrFormat("unexpected trailing token '%s'", Peek().text.c_str()));
    }
    return out;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  void Advance() { ++index_; }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().type == TokenType::kIdent && AsciiLower(Peek().text) == keyword;
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return InvalidArgumentError(StrFormat("expected %s at offset %zu, got '%s'",
                                            std::string(keyword).c_str(), Peek().position,
                                            Peek().text.c_str()));
    }
    Advance();
    return Status::Ok();
  }

  Status Expect(TokenType type, std::string_view what) {
    if (Peek().type != type) {
      return InvalidArgumentError(StrFormat("expected '%s' at offset %zu, got '%s'",
                                            std::string(what).c_str(), Peek().position,
                                            Peek().text.c_str()));
    }
    Advance();
    return Status::Ok();
  }

  Status Error(const std::string& message) const {
    return InvalidArgumentError(
        StrFormat("%s (at offset %zu)", message.c_str(), Peek().position));
  }

  /// "50ms" lexes as integer 50 then identifier "ms"; units us/ms/s/m/h.
  Result<Duration> ParseDurationLiteral() {
    if (Peek().type != TokenType::kInteger) return Error("expected a duration (e.g. 50ms)");
    // A day is < 2^37 us; anything past 12 digits cannot be a sane bound
    // (and would overflow stoll / the unit multiply below).
    if (Peek().text.size() > 12) return Error("duration out of range");
    int64_t count = std::stoll(Peek().text);
    Advance();
    if (Peek().type != TokenType::kIdent) return Error("expected a duration unit (us/ms/s/m/h)");
    std::string unit = AsciiLower(Peek().text);
    Duration scale;
    if (unit == "us") {
      scale = kMicrosecond;
    } else if (unit == "ms") {
      scale = kMillisecond;
    } else if (unit == "s") {
      scale = kSecond;
    } else if (unit == "m") {
      scale = kMinute;
    } else if (unit == "h") {
      scale = kHour;
    } else {
      return Error(StrFormat("unknown duration unit '%s'", Peek().text.c_str()));
    }
    if (count > std::numeric_limits<Duration>::max() / scale) {
      return Error("duration out of range");
    }
    Advance();
    return count * scale;
  }

  Result<FieldRef> ParseFieldStar() {
    // ident '.' '*'
    if (Peek().type != TokenType::kIdent) return Error("expected alias in SELECT");
    FieldRef ref;
    ref.alias = Peek().text;
    Advance();
    SCADS_RETURN_IF_ERROR(Expect(TokenType::kDot, "."));
    SCADS_RETURN_IF_ERROR(Expect(TokenType::kStar, "*"));
    ref.field = "*";
    return ref;
  }

  Result<TableRef> ParseTableRef() {
    if (Peek().type != TokenType::kIdent) return Error("expected table name");
    TableRef ref;
    ref.table = Peek().text;
    Advance();
    // Optional alias: an identifier that is not a clause keyword.
    if (Peek().type == TokenType::kIdent) {
      std::string lower = AsciiLower(Peek().text);
      if (lower != "join" && lower != "on" && lower != "where" && lower != "order" &&
          lower != "limit" && lower != "and" && lower != "or" && lower != "with") {
        ref.alias = Peek().text;
        Advance();
      }
    }
    if (ref.alias.empty()) ref.alias = ref.table;
    return ref;
  }

  Result<FieldRef> ParseFieldRef() {
    if (Peek().type != TokenType::kIdent) return Error("expected field reference");
    FieldRef ref;
    ref.alias = Peek().text;
    Advance();
    SCADS_RETURN_IF_ERROR(Expect(TokenType::kDot, "."));
    if (Peek().type != TokenType::kIdent) return Error("expected field name after '.'");
    ref.field = Peek().text;
    Advance();
    return ref;
  }

  Result<Predicate> ParsePredicate() {
    Result<FieldRef> lhs = ParseFieldRef();
    if (!lhs.ok()) return lhs.status();
    Predicate pred;
    pred.lhs = *lhs;
    switch (Peek().type) {
      case TokenType::kEq: pred.op = CompareOp::kEq; break;
      case TokenType::kLt: pred.op = CompareOp::kLt; break;
      case TokenType::kGt: pred.op = CompareOp::kGt; break;
      case TokenType::kLe: pred.op = CompareOp::kLe; break;
      case TokenType::kGe: pred.op = CompareOp::kGe; break;
      default:
        return Error("expected comparison operator");
    }
    Advance();
    if (Peek().type == TokenType::kParam) {
      pred.rhs_is_param = true;
      pred.param.name = Peek().text;
      Advance();
      return pred;
    }
    Result<FieldRef> rhs = ParseFieldRef();
    if (!rhs.ok()) return rhs.status();
    pred.rhs_is_param = false;
    pred.rhs_field = *rhs;
    return pred;
  }

  Result<OrGroup> ParseOrGroup() {
    OrGroup group;
    for (;;) {
      Result<Predicate> pred = ParsePredicate();
      if (!pred.ok()) return pred.status();
      group.alternatives.push_back(std::move(pred).value());
      if (PeekKeyword("or")) {
        Advance();
        continue;
      }
      return group;
    }
  }

  std::vector<Token> tokens_;
  std::string_view text_;
  size_t index_ = 0;
};

}  // namespace

Result<QueryTemplate> ParseQueryTemplate(std::string_view text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Run();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), text);
  return parser.Run();
}

}  // namespace scads
