#include "query/query_spec.h"

#include <sstream>

#include "common/string_util.h"

namespace monsoon {

std::string UdfTerm::ToString() const {
  std::string out = function + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i];
  }
  out += ")";
  return out;
}

std::string Predicate::ToString() const {
  if (kind == Kind::kSelection) {
    return left.ToString() + " = " + constant.ToString();
  }
  return left.ToString() + (equality ? " = " : " <> ") + right->ToString();
}

StatusOr<int> QuerySpec::AddRelation(std::string alias, std::string table_name) {
  for (const auto& rel : relations_) {
    if (rel.alias == alias) {
      return Status::AlreadyExists("relation alias '" + alias + "' already used");
    }
  }
  if (relations_.size() >= 64) {
    return Status::OutOfRange("at most 64 relations per query");
  }
  relations_.push_back(RelationRef{std::move(alias), std::move(table_name)});
  components_.push_back(RelSet::Single(num_relations() - 1).mask());
  relation_preds_.push_back(0);
  return static_cast<int>(relations_.size()) - 1;
}

StatusOr<int> QuerySpec::RelationIndex(const std::string& alias) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].alias == alias) return static_cast<int>(i);
  }
  return Status::NotFound("no relation with alias '" + alias + "'");
}

StatusOr<UdfTerm> QuerySpec::MakeTerm(std::string function,
                                      std::vector<std::string> args) {
  UdfTerm term;
  term.term_id = next_term_id_++;
  term.function = std::move(function);
  term.args = std::move(args);
  for (const auto& arg : term.args) {
    size_t dot = arg.find('.');
    if (dot == std::string::npos) {
      return Status::InvalidArgument("attribute '" + arg +
                                     "' must be qualified as alias.column");
    }
    MONSOON_ASSIGN_OR_RETURN(int rel, RelationIndex(arg.substr(0, dot)));
    term.rels.Add(rel);
  }
  if (term.rels.empty()) {
    return Status::InvalidArgument("UDF term '" + term.function +
                                   "' references no relation");
  }
  return term;
}

Status QuerySpec::AddJoinPredicate(UdfTerm left, UdfTerm right, bool equality) {
  if (predicates_.size() >= 64) return Status::OutOfRange("at most 64 predicates");
  Predicate pred;
  pred.pred_id = static_cast<int>(predicates_.size());
  pred.kind = Predicate::Kind::kJoin;
  pred.left = std::move(left);
  pred.right = std::move(right);
  pred.equality = equality;
  AddPredicate(std::move(pred));
  return Status::OK();
}

Status QuerySpec::AddSelectionPredicate(UdfTerm term, Value constant) {
  if (predicates_.size() >= 64) return Status::OutOfRange("at most 64 predicates");
  if (term.rels.count() != 1) {
    return Status::InvalidArgument(
        "selection predicate must reference exactly one relation: " + term.ToString());
  }
  Predicate pred;
  pred.pred_id = static_cast<int>(predicates_.size());
  pred.kind = Predicate::Kind::kSelection;
  pred.left = std::move(term);
  pred.constant = std::move(constant);
  AddPredicate(std::move(pred));
  return Status::OK();
}

void QuerySpec::AddPredicate(Predicate pred) {
  const uint64_t rels = pred.rels().mask();
  predicate_rels_.push_back(rels);
  for (uint64_t m = rels; m != 0; m &= m - 1) {
    relation_preds_[__builtin_ctzll(m)] |= uint64_t{1} << pred.pred_id;
  }
  // Merge the components of every relation the predicate touches.
  uint64_t merged = rels;
  for (uint64_t m = rels; m != 0; m &= m - 1) merged |= components_[__builtin_ctzll(m)];
  for (uint64_t m = merged; m != 0; m &= m - 1) components_[__builtin_ctzll(m)] = merged;
  predicates_.push_back(std::move(pred));
}

uint64_t QuerySpec::PredicatesTouching(RelSet rels) const {
  uint64_t out = 0;
  for (uint64_t m = rels.mask(); m != 0; m &= m - 1) {
    out |= relation_preds_[__builtin_ctzll(m)];
  }
  return out;
}

RelSet QuerySpec::ComponentOf(RelSet rels) const {
  uint64_t out = rels.mask();
  for (uint64_t m = rels.mask(); m != 0; m &= m - 1) {
    out |= components_[__builtin_ctzll(m)];
  }
  return RelSet(out);
}

RelSet QuerySpec::AllRelations() const {
  RelSet all;
  for (int i = 0; i < num_relations(); ++i) all.Add(i);
  return all;
}

uint64_t QuerySpec::AllPredicatesMask() const {
  if (predicates_.empty()) return 0;
  if (predicates_.size() >= 64) return ~uint64_t{0};
  return (uint64_t{1} << predicates_.size()) - 1;
}

std::vector<int> QuerySpec::SelectionPredicatesOn(int rel) const {
  std::vector<int> out;
  for (const auto& pred : predicates_) {
    if (pred.kind == Predicate::Kind::kSelection && pred.rels() == RelSet::Single(rel)) {
      out.push_back(pred.pred_id);
    }
  }
  return out;
}

std::vector<const UdfTerm*> QuerySpec::AllTerms() const {
  std::vector<const UdfTerm*> out;
  for (const auto& pred : predicates_) {
    out.push_back(&pred.left);
    if (pred.right.has_value()) out.push_back(&*pred.right);
  }
  return out;
}

Status QuerySpec::Validate() const {
  if (relations_.empty()) return Status::InvalidArgument("query has no relations");
  RelSet all = AllRelations();
  for (const auto& pred : predicates_) {
    if (!all.ContainsAll(pred.rels())) {
      return Status::Internal("predicate references unknown relation: " +
                              pred.ToString());
    }
    if (pred.kind == Predicate::Kind::kJoin && !pred.right.has_value()) {
      return Status::Internal("join predicate missing right term: " + pred.ToString());
    }
  }
  return Status::OK();
}

std::string QuerySpec::ToString() const {
  std::ostringstream out;
  out << "SELECT * FROM ";
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (i > 0) out << ", ";
    out << relations_[i].table_name;
    if (relations_[i].alias != relations_[i].table_name) out << " " << relations_[i].alias;
  }
  if (!predicates_.empty()) {
    out << " WHERE ";
    for (size_t i = 0; i < predicates_.size(); ++i) {
      if (i > 0) out << " AND ";
      out << predicates_[i].ToString();
    }
  }
  return out.str();
}

}  // namespace monsoon
