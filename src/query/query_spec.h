#ifndef MONSOON_QUERY_QUERY_SPEC_H_
#define MONSOON_QUERY_QUERY_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/relset.h"
#include "query/select_item.h"
#include "storage/value.h"

namespace monsoon {

/// One relation instance in a query's FROM list. The same base table can
/// appear multiple times under different aliases (the paper's fraud query
/// joins `order` with itself as o1 / o2).
struct RelationRef {
  std::string alias;       // unique within the query ("o1")
  std::string table_name;  // catalog table ("order")
};

/// A UDF application bound to specific attributes — one side of a
/// predicate. term_id is unique within the query and is the key under
/// which distinct-value statistics d(F, r|_s) are stored.
struct UdfTerm {
  int term_id = -1;
  std::string function;           // name in the UdfRegistry
  std::vector<std::string> args;  // qualified attribute names ("o1.items")
  RelSet rels;                    // relations the args reference

  /// "extract_date(o1.when)" rendering.
  std::string ToString() const;
};

/// A conjunct of the WHERE clause, built from the paper's grammar.
/// Join predicates compare two UDF terms; selection predicates compare a
/// term with a constant. `equality` distinguishes '=' from '<>' (the
/// latter only ever acts as a residual filter).
struct Predicate {
  enum class Kind { kJoin, kSelection };

  int pred_id = -1;
  Kind kind = Kind::kJoin;
  UdfTerm left;
  std::optional<UdfTerm> right;  // present iff kind == kJoin
  Value constant;                // used iff kind == kSelection
  bool equality = true;          // false for '<>'

  /// All relations the predicate touches.
  RelSet rels() const {
    RelSet r = left.rels;
    if (right.has_value()) r = r.Union(right->rels);
    return r;
  }

  /// True if this predicate can drive a hash join between expressions
  /// covering exactly one side each: both terms exist, '=' comparison,
  /// and the two sides reference disjoint relation sets.
  bool IsEquiJoin() const {
    return kind == Kind::kJoin && equality && right.has_value() &&
           !left.rels.Intersects(right->rels);
  }

  std::string ToString() const;
};

/// A parsed query: relations + conjunctive WHERE clause. This is the input
/// to every optimizer in the repo. Construction assigns term / predicate
/// ids and resolves alias references; `Validate` checks the spec against
/// the grammar restrictions of Sec. 3.1.
class QuerySpec {
 public:
  QuerySpec() = default;

  /// Adds a relation; returns its index. Alias must be unique.
  StatusOr<int> AddRelation(std::string alias, std::string table_name);

  /// Builds a UdfTerm, resolving each "alias.column" argument to the
  /// relations added so far. Fails on unknown aliases.
  StatusOr<UdfTerm> MakeTerm(std::string function, std::vector<std::string> args);

  /// Adds `left = right` (or `left <> right` when equality = false).
  Status AddJoinPredicate(UdfTerm left, UdfTerm right, bool equality = true);

  /// Adds `term = constant`.
  Status AddSelectionPredicate(UdfTerm term, Value constant);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  const std::vector<RelationRef>& relations() const { return relations_; }
  const RelationRef& relation(int i) const { return relations_[i]; }
  StatusOr<int> RelationIndex(const std::string& alias) const;

  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const Predicate& predicate(int i) const { return predicates_[i]; }

  /// Mask over all relations.
  RelSet AllRelations() const;
  /// Mask over all predicate ids (bit i = predicate i).
  uint64_t AllPredicatesMask() const;

  /// Predicate ids whose kind is kSelection and whose relations are
  /// exactly {rel}.
  std::vector<int> SelectionPredicatesOn(int rel) const;

  /// Every UdfTerm in the query (left and right of each predicate).
  std::vector<const UdfTerm*> AllTerms() const;

  /// Relation mask of every predicate, indexed by predicate id (the same
  /// sets as predicate(i).rels(), kept flat for bitmask tests).
  const std::vector<uint64_t>& predicate_rels() const { return predicate_rels_; }

  /// Mask of the predicates that touch any relation of `rels`.
  uint64_t PredicatesTouching(RelSet rels) const;

  /// Relations connected to any of `rels` through the predicate graph
  /// (each predicate links all relations it touches), `rels` included.
  RelSet ComponentOf(RelSet rels) const;

  /// The SELECT list (defaults to a single `*`). Applied by
  /// exec/projection.h as a final pass over the joined result; it plays
  /// no role in plan search.
  const std::vector<SelectItem>& select_items() const { return select_items_; }
  void set_select_items(std::vector<SelectItem> items) {
    select_items_ = std::move(items);
  }

  /// Sanity checks: >= 1 relation, every predicate references known
  /// relations, selection terms reference exactly one side.
  Status Validate() const;

  std::string ToString() const;

 private:
  void AddPredicate(Predicate pred);

  std::vector<RelationRef> relations_;
  std::vector<Predicate> predicates_;
  // Query-constant masks maintained by AddRelation / AddPredicate.
  std::vector<uint64_t> predicate_rels_;
  std::vector<uint64_t> components_;  // per relation: its component's mask
  std::vector<uint64_t> relation_preds_;  // per relation: predicates on it
  std::vector<SelectItem> select_items_ = {SelectItem::Star()};
  int next_term_id_ = 0;
};

}  // namespace monsoon

#endif  // MONSOON_QUERY_QUERY_SPEC_H_
