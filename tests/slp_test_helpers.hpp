// Shared builders for SLP tests: the paper's worked examples, random flat
// programs (bitmatrix SLPs) for property sweeps, and the reference XorRePair
// that slp::xor_repair_compress must match bit for bit.
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <stdexcept>

#include "gf/gfmat.hpp"
#include "slp/program.hpp"

namespace xorec::slp::testing {

inline Term C(uint32_t id) { return Term::constant(id); }
inline Term V(uint32_t id) { return Term::var(id); }

/// §6.2's running example P_eg over constants A..G = c0..c6:
///   v0 <- A ^ B;  v1 <- C ^ D;  v2 <- (v0, E, F);
///   v3 <- (v2, G, A);  v4 <- (v0, v2, v3);  ret(v1, v3, v4)
inline Program make_peg() {
  Program p;
  p.num_consts = 7;
  p.num_vars = 5;
  p.body = {
      {0, {C(0), C(1)}},
      {1, {C(2), C(3)}},
      {2, {V(0), C(4), C(5)}},
      {3, {V(2), C(6), C(0)}},
      {4, {V(0), V(2), V(3)}},
  };
  p.outputs = {1, 3, 4};
  p.name = "peg";
  return p;
}

/// §6.3's register-assigned variant P_reg: instruction 5 stores into v0.
inline Program make_preg() {
  Program p = make_peg();
  p.body[4].target = 0;
  p.outputs = {1, 3, 0};
  p.name = "preg";
  return p;
}

/// §4.2's P0 (the RePair/XorRePair running example) over a..d = c0..c3.
inline Program make_p0() {
  Program p;
  p.num_consts = 4;
  p.num_vars = 4;
  p.body = {
      {0, {C(0), C(1)}},
      {1, {C(0), C(1), C(2)}},
      {2, {C(0), C(1), C(2), C(3)}},
      {3, {C(1), C(2), C(3)}},
  };
  p.outputs = {0, 1, 2, 3};
  p.name = "p0";
  return p;
}

/// Random flat SLP: `rows` outputs over `consts` inputs, each row a random
/// nonzero subset (density ~1/2) — the shape bitmatrix coding produces.
inline Program random_flat(uint32_t consts, uint32_t rows, uint32_t seed) {
  std::mt19937 rng(seed);
  Program p;
  p.num_consts = consts;
  p.num_vars = rows;
  for (uint32_t r = 0; r < rows; ++r) {
    Instruction ins;
    ins.target = r;
    for (uint32_t c = 0; c < consts; ++c)
      if (rng() & 1) ins.args.push_back(C(c));
    if (ins.args.empty()) ins.args.push_back(C(rng() % consts));
    p.body.push_back(std::move(ins));
    p.outputs.push_back(r);
  }
  p.name = "rand" + std::to_string(seed);
  return p;
}

/// The 16 rs(10,4) erasure patterns perfbench's object_degraded_read draws
/// at seed 1: for e = 1..4, three patterns of e data fragments and one of
/// e-1 data fragments plus a parity.
inline const std::vector<std::vector<uint32_t>> kDegradedReadPatterns = {
    {7},          {4},          {8},          {13},
    {0, 7},       {1, 9},       {4, 6},       {6, 11},
    {4, 7, 9},    {0, 1, 5},    {2, 5, 9},    {1, 6, 12},
    {3, 5, 6, 8}, {0, 3, 6, 9}, {1, 3, 6, 7}, {1, 2, 5, 13},
};

/// The rs(10,4) repair bitmatrices of one erasure pattern, built the way
/// RsCodec builds its plan steps: the erased data rows of the inverse over
/// the first ten survivors (data before parity), then the erased parity
/// rows of the code.
inline std::vector<bitmatrix::BitMatrix> rs10_4_repair_matrices(
    const std::vector<uint32_t>& erased) {
  const gf::Matrix code = gf::rs_isal_matrix(10, 4);
  std::vector<size_t> survivors, data_rows, parity_rows;
  for (size_t id = 0; id < 14 && survivors.size() < 10; ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end()) survivors.push_back(id);
  for (uint32_t id : erased) (id < 10 ? data_rows : parity_rows).push_back(id);
  std::vector<bitmatrix::BitMatrix> out;
  if (!data_rows.empty())
    out.push_back(bitmatrix::expand(gf::decode_matrix(code, survivors)->select_rows(data_rows)));
  if (!parity_rows.empty()) out.push_back(bitmatrix::expand(code.select_rows(parity_rows)));
  return out;
}

/// XorRePair (§4.3-4.4) with Rebuild as the paper states it: after every
/// Pair step, each live definition's greedy is re-run from scratch over all
/// temporals. slp::xor_repair_compress replays these trajectories
/// incrementally and must return the identical program. Pair choice, temporal
/// reuse, ⊕-cancellation and the final dead-code sweep follow
/// slp/repair.hpp's faithfulness notes; the pair counts live in one
/// ⊏-ordered map scanned for the maximum instead of per-count buckets.
inline Program reference_xor_repair_compress(const Program& flat) {
  using Def = std::vector<Term>;  // sorted by ≺
  using bitmatrix::BitRow;
  if (!flat.is_flat()) throw std::invalid_argument("reference: program must be flat");
  const uint32_t nc = flat.num_consts;

  std::vector<Def> def_of_var(flat.num_vars);
  std::vector<BitRow> val_of_var(flat.num_vars, BitRow(nc));
  for (const Instruction& ins : flat.body) {
    Def d;
    for (const Term& t : ins.args) {
      auto it = std::lower_bound(d.begin(), d.end(), t);
      if (it != d.end() && *it == t) d.erase(it); else d.insert(it, t);
      val_of_var[ins.target].flip(t.id);
    }
    def_of_var[ins.target] = std::move(d);
  }
  const size_t n = flat.outputs.size();
  std::vector<Def> defs(n);
  std::vector<BitRow> values(n);
  std::vector<Term> alias(n);
  std::vector<bool> alive(n, false);
  for (size_t i = 0; i < n; ++i) {
    defs[i] = def_of_var[flat.outputs[i]];
    values[i] = val_of_var[flat.outputs[i]];
    if (defs[i].empty()) throw std::invalid_argument("reference: output with zero value");
    if (defs[i].size() == 1) alias[i] = defs[i][0]; else alive[i] = true;
  }

  std::map<TermPair, uint32_t> counts;
  // Adds `delta` to every pair of `d` with a term missing from `other`: the
  // pairs that rewriting `d` into `other` (or back) takes away (or brings).
  const auto count_pairs = [&](const Def& d, const Def& other, int delta) {
    Def gone;
    std::set_difference(d.begin(), d.end(), other.begin(), other.end(),
                        std::back_inserter(gone));
    for (const Term& g : gone)
      for (const Term& z : d) {
        if (z == g || (z < g && std::binary_search(gone.begin(), gone.end(), z))) continue;
        const TermPair p = TermPair::make(g, z);
        if ((counts[p] += static_cast<uint32_t>(delta)) == 0) counts.erase(p);
      }
  };
  const auto set_def = [&](size_t i, Def nd) {
    if (nd.size() == 1) {
      alias[i] = nd[0];
      alive[i] = false;
      nd.clear();
    }
    count_pairs(defs[i], nd, -1);
    count_pairs(nd, defs[i], +1);
    defs[i] = std::move(nd);
  };
  for (size_t i = 0; i < n; ++i)
    if (alive[i]) count_pairs(defs[i], {}, +1);

  std::vector<Instruction> temps;  // t_i <- lo ⊕ hi
  std::vector<BitRow> temp_values;
  std::map<TermPair, uint32_t> temp_of;
  const auto value_of = [&](const Term& t) {
    if (t.is_var()) return temp_values[t.id];
    BitRow v(nc);
    v.flip(t.id);
    return v;
  };

  while (std::find(alive.begin(), alive.end(), true) != alive.end()) {
    // Pair: the most frequent pair, ⊏-smallest among equals.
    auto best = counts.begin();
    for (auto it = counts.begin(); it != counts.end(); ++it)
      if (it->second > best->second) best = it;
    const TermPair p = best->first;
    auto [tit, minted] = temp_of.emplace(p, static_cast<uint32_t>(temps.size()));
    if (minted) {
      temps.push_back({tit->second, {p.lo, p.hi}});
      temp_values.push_back(value_of(p.lo) ^ value_of(p.hi));
    }
    const Term t = Term::var(tit->second);
    for (size_t i = 0; i < n; ++i) {
      if (!alive[i] || !std::binary_search(defs[i].begin(), defs[i].end(), p.lo) ||
          !std::binary_search(defs[i].begin(), defs[i].end(), p.hi))
        continue;
      Def nd;
      const bool cancel = std::binary_search(defs[i].begin(), defs[i].end(), t);
      for (const Term& z : defs[i])
        if (z != p.lo && z != p.hi && z != t) nd.push_back(z);
      if (!cancel) nd.insert(std::lower_bound(nd.begin(), nd.end(), t), t);
      set_def(i, std::move(nd));
    }

    // Rebuild: greedily XOR in the temporal that shrinks the remainder most
    // (strict <: ties keep the earlier temporal), never one already picked.
    for (size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      BitRow rem = values[i];
      size_t rem_size = rem.popcount();
      std::vector<bool> picked(temps.size(), false);
      Def nd;
      for (;;) {
        uint32_t pick = UINT32_MAX;
        size_t pick_size = rem_size;
        for (uint32_t u = 0; u < temps.size(); ++u) {
          if (picked[u]) continue;
          const size_t sz = rem.xor_popcount(temp_values[u]);
          if (sz < pick_size) {
            pick_size = sz;
            pick = u;
          }
        }
        if (pick == UINT32_MAX) break;
        rem ^= temp_values[pick];
        rem_size = pick_size;
        picked[pick] = true;
        nd.push_back(Term::var(pick));
      }
      if (nd.size() + rem_size >= defs[i].size()) continue;
      for (uint32_t c : rem.ones()) nd.push_back(Term::constant(c));
      std::sort(nd.begin(), nd.end());
      set_def(i, std::move(nd));
    }
  }

  // Dead-code sweep, then renumber the live temporals in generation order.
  std::vector<bool> live(temps.size(), false);
  for (const Term& a : alias)
    if (a.is_var()) live[a.id] = true;
  for (size_t u = temps.size(); u-- > 0;)
    if (live[u])
      for (const Term& a : temps[u].args)
        if (a.is_var()) live[a.id] = true;
  std::vector<uint32_t> new_id(temps.size(), UINT32_MAX);
  Program out;
  out.num_consts = nc;
  for (uint32_t u = 0; u < temps.size(); ++u) {
    if (!live[u]) continue;
    new_id[u] = static_cast<uint32_t>(out.body.size());
    Instruction ins{new_id[u], {}};
    for (const Term& a : temps[u].args)
      ins.args.push_back(a.is_var() ? Term::var(new_id[a.id]) : a);
    out.body.push_back(std::move(ins));
  }
  out.num_vars = static_cast<uint32_t>(out.body.size());
  for (const Term& a : alias) {
    if (a.is_var()) {
      out.outputs.push_back(new_id[a.id]);
    } else {
      out.body.push_back({out.num_vars, {a}});
      out.outputs.push_back(out.num_vars++);
    }
  }
  return out;
}

}  // namespace xorec::slp::testing
