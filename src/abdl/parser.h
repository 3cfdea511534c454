#ifndef MLDS_ABDL_PARSER_H_
#define MLDS_ABDL_PARSER_H_

#include <functional>
#include <optional>
#include <string_view>

#include "abdl/request.h"
#include "common/result.h"

namespace mlds::abdl {

/// Parses one ABDL request written in the thesis's notation, e.g.
///
///   RETRIEVE ((FILE = course) and (title = 'Advanced Database'))
///            (title, dept, semester) BY course
///   INSERT (<FILE, course>, <title, 'Database'>, <credits, 4>)
///   UPDATE ((FILE = course) and (credits = 3)) (credits = 4)
///   DELETE ((FILE = course) and (title = 'Old'))
///
/// Query expressions may nest AND/OR arbitrarily; the parser normalizes
/// them to disjunctive normal form (AND binds tighter than OR).
Result<Request> ParseRequest(std::string_view text);

/// The stored kind of attribute `attr` of kernel file `file`, when the
/// reader knows the file's descriptor; nullopt otherwise.
using KindOf = std::function<std::optional<abdm::ValueKind>(
    std::string_view file, std::string_view attr)>;

/// ParseRequest with kind-directed numbers: a number written for a FLOAT
/// attribute (an INSERT keyword, or the modifier of an UPDATE whose query
/// names its file) parses as FLOAT even when it reads like an integer
/// ("87", "-0"). The WAL and snapshot readers parse with it, so a value
/// read back from its text keeps its kind.
Result<Request> ParseRequest(std::string_view text, const KindOf& kind_of);

/// Parses a semicolon- or newline-separated sequence of requests into a
/// transaction.
Result<Transaction> ParseTransaction(std::string_view text);

/// Parses a bare query expression into DNF.
Result<abdm::Query> ParseQuery(std::string_view text);

}  // namespace mlds::abdl

#endif  // MLDS_ABDL_PARSER_H_
