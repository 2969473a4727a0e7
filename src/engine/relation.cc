#include "engine/relation.h"

#include <algorithm>
#include <cassert>

#include "engine/flat_table.h"

namespace gmark {

namespace {

/// Hash of the columns of `row` at `positions`, in that order.
uint64_t KeyHash(std::span<const NodeId> row,
                 const std::vector<int>& positions) {
  uint64_t h = kRowHashSeed;
  for (int p : positions) h = HashColumn(h, row[static_cast<size_t>(p)]);
  return h;
}

/// Hash of a whole row.
uint64_t RowHash(std::span<const NodeId> row) {
  uint64_t h = kRowHashSeed;
  for (NodeId v : row) h = HashColumn(h, v);
  return h;
}

/// Whether `x`'s columns at `x_pos` equal `y`'s at `y_pos`, pairwise.
bool KeyEquals(std::span<const NodeId> x, const std::vector<int>& x_pos,
               std::span<const NodeId> y, const std::vector<int>& y_pos) {
  for (size_t k = 0; k < x_pos.size(); ++k) {
    if (x[static_cast<size_t>(x_pos[k])] != y[static_cast<size_t>(y_pos[k])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

VarRelation VarRelation::FromPairs(
    VarId x, VarId y, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  if (x == y) {
    VarRelation rel({x});
    for (const auto& [s, t] : pairs) {
      if (s == t) {
        NodeId v = s;
        rel.AppendRow({&v, 1});
      }
    }
    return rel;
  }
  VarRelation rel({x, y});
  for (const auto& [s, t] : pairs) {
    NodeId row[2] = {s, t};
    rel.AppendRow({row, 2});
  }
  return rel;
}

int VarRelation::IndexOf(VarId var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Result<ChargedRelation> ChargeRelation(VarRelation rel,
                                       BudgetTracker* budget) {
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(rel.row_count()));
  return ChargedRelation(std::move(rel), std::move(charge));
}

Result<bool> AppendDistinctRow(std::span<const NodeId> row, VarRelation* rel,
                               FlatRowTable* seen) {
  const size_t id = rel->row_count();
  GMARK_RETURN_NOT_OK(CheckRowLimit(id));
  const uint32_t found = seen->FindOrInsert(
      RowHash(row), static_cast<uint32_t>(id),
      [&](uint32_t r) { return std::ranges::equal(rel->row(r), row); },
      [&](uint32_t r) { return RowHash(rel->row(r)); });
  if (found != FlatRowTable::kNone) return false;
  if (rel->width() == 0) {
    rel->SetNonEmpty();
  } else {
    rel->AppendRow(row);
  }
  return true;
}

Result<ChargedRelation> HashJoin(const VarRelation& a, const VarRelation& b,
                                 BudgetTracker* budget) {
  // Shared variables and their positions in both relations.
  std::vector<int> a_pos, b_pos;
  for (size_t i = 0; i < a.vars().size(); ++i) {
    int j = b.IndexOf(a.vars()[i]);
    if (j >= 0) {
      a_pos.push_back(static_cast<int>(i));
      b_pos.push_back(j);
    }
  }
  // Output schema: all of a, then b's non-shared variables.
  std::vector<VarId> out_vars = a.vars();
  std::vector<int> b_extra;
  for (size_t j = 0; j < b.vars().size(); ++j) {
    if (a.IndexOf(b.vars()[j]) < 0) {
      out_vars.push_back(b.vars()[j]);
      b_extra.push_back(static_cast<int>(j));
    }
  }
  VarRelation out(out_vars);
  TupleCharge charge(budget);

  // Build on b: number b's distinct keys in first-occurrence order, the
  // table holding each key's first b row.
  const size_t b_rows = b.row_count();
  GMARK_RETURN_NOT_OK(CheckRowLimit(b_rows));
  auto b_key_hash = [&](uint32_t j) { return KeyHash(b.row(j), b_pos); };
  FlatRowTable keys;
  std::vector<uint32_t> group_of(b_rows);
  std::vector<uint32_t> bounds{0};  // group sizes, then group offsets
  for (uint32_t j = 0; j < b_rows; ++j) {
    const std::span<const NodeId> row = b.row(j);
    const uint32_t first = keys.FindOrInsert(
        b_key_hash(j), j,
        [&](uint32_t r) { return KeyEquals(b.row(r), b_pos, row, b_pos); },
        b_key_hash);
    if (first == FlatRowTable::kNone) {
      group_of[j] = static_cast<uint32_t>(bounds.size() - 1);
      bounds.push_back(0);
    } else {
      group_of[j] = group_of[first];
    }
    ++bounds[group_of[j] + 1];
  }
  // Counting sort: `order` lists b's rows group by group, in b order
  // within a group; group g spans order[bounds[g], bounds[g + 1]).
  for (size_t g = 1; g < bounds.size(); ++g) bounds[g] += bounds[g - 1];
  std::vector<uint32_t> order(b_rows);
  {
    std::vector<uint32_t> next(bounds.begin(), bounds.end() - 1);
    for (uint32_t j = 0; j < b_rows; ++j) order[next[group_of[j]]++] = j;
  }

  // Count: probe with a, in a order, recording each row's group and
  // summing the output size. A sum past the headroom is killed with one
  // charge of headroom + 1, which leaves the tracker (balance, peak,
  // message) as charging row by row up to the failing row would. The
  // headroom is exact only on a base tracker, whose balance is within
  // the ceiling here because every charge past it fails.
  assert(!budget->is_worker() && "HashJoin on a worker tracker");
  assert(budget->tuples_used() <= budget->budget().max_tuples);
  const size_t headroom = budget->budget().max_tuples - budget->tuples_used();
  PeriodicTimeCheck clock(budget);
  std::vector<uint32_t> probe_group(a.row_count(), FlatRowTable::kNone);
  size_t total = 0;
  for (size_t i = 0; i < a.row_count(); ++i) {
    GMARK_RETURN_NOT_OK(clock.Check());
    const std::span<const NodeId> row = a.row(i);
    const uint32_t first = keys.Find(KeyHash(row, a_pos), [&](uint32_t r) {
      return KeyEquals(b.row(r), b_pos, row, a_pos);
    });
    if (first == FlatRowTable::kNone) continue;
    const uint32_t g = group_of[first];
    const size_t size = bounds[g + 1] - bounds[g];
    if (size > headroom - total) return charge.Charge(headroom + 1);
    total += size;
    probe_group[i] = g;
  }
  GMARK_RETURN_NOT_OK(charge.Charge(total));

  // Emit: each a row's group, in b order.
  out.Reserve(total);
  std::vector<NodeId> row_buf(out_vars.size());
  for (size_t i = 0; i < a.row_count(); ++i) {
    GMARK_RETURN_NOT_OK(clock.Check());
    const uint32_t g = probe_group[i];
    if (g == FlatRowTable::kNone) continue;
    const std::span<const NodeId> row = a.row(i);
    std::copy(row.begin(), row.end(), row_buf.begin());
    for (uint32_t k = bounds[g]; k < bounds[g + 1]; ++k) {
      GMARK_RETURN_NOT_OK(clock.Check());
      const std::span<const NodeId> match = b.row(order[k]);
      for (size_t e = 0; e < b_extra.size(); ++e) {
        row_buf[row.size() + e] = match[static_cast<size_t>(b_extra[e])];
      }
      out.AppendRow(row_buf);
    }
  }
  return ChargedRelation(std::move(out), std::move(charge));
}

Result<ChargedRelation> ProjectDistinct(const VarRelation& rel,
                                        const std::vector<VarId>& onto,
                                        BudgetTracker* budget) {
  std::vector<int> positions;
  for (VarId v : onto) {
    int p = rel.IndexOf(v);
    if (p < 0) {
      return Status::InvalidArgument("projection variable not in relation");
    }
    positions.push_back(p);
  }
  VarRelation out(onto);
  TupleCharge charge(budget);
  if (onto.empty()) {
    if (rel.row_count() > 0) out.SetNonEmpty();
    return ChargedRelation(std::move(out), std::move(charge));
  }
  FlatRowTable seen;  // ids of rows in `out`
  PeriodicTimeCheck clock(budget);
  std::vector<NodeId> key(positions.size());
  for (size_t i = 0; i < rel.row_count(); ++i) {
    GMARK_RETURN_NOT_OK(clock.Check());
    const std::span<const NodeId> row = rel.row(i);
    for (size_t k = 0; k < positions.size(); ++k) {
      key[k] = row[static_cast<size_t>(positions[k])];
    }
    GMARK_ASSIGN_OR_RETURN(bool added, AppendDistinctRow(key, &out, &seen));
    if (added) GMARK_RETURN_NOT_OK(charge.Charge(1));
  }
  return ChargedRelation(std::move(out), std::move(charge));
}

Result<uint64_t> CountDistinctUnion(const std::vector<VarRelation>& rels,
                                    BudgetTracker* budget) {
  if (rels.empty()) return static_cast<uint64_t>(0);
  if (rels[0].width() == 0) {
    for (const auto& r : rels) {
      if (r.row_count() > 0) return static_cast<uint64_t>(1);
    }
    return static_cast<uint64_t>(0);
  }
  // One distinct relation accumulates the union; the table holds ids
  // of its rows. Its charge lives exactly as long as it does: it
  // releases when this guard unwinds, on success and failure alike.
  VarRelation distinct(rels[0].vars());
  FlatRowTable seen;  // ids of rows in `distinct`
  TupleCharge charge(budget);
  PeriodicTimeCheck clock(budget);
  for (const auto& r : rels) {
    if (r.width() != distinct.width()) {
      return Status::InvalidArgument("union of relations of unequal width");
    }
    for (size_t i = 0; i < r.row_count(); ++i) {
      GMARK_RETURN_NOT_OK(clock.Check());
      GMARK_ASSIGN_OR_RETURN(bool added,
                             AppendDistinctRow(r.row(i), &distinct, &seen));
      if (added) GMARK_RETURN_NOT_OK(charge.Charge(1));
    }
    GMARK_RETURN_NOT_OK(budget->CheckTime());
  }
  return static_cast<uint64_t>(distinct.row_count());
}

}  // namespace gmark
