#include "slp/repair.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "slp/semantics.hpp"

namespace xorec::slp {
namespace {

using bitmatrix::BitRow;

/// Sorted-vector set of terms: the definition of one original variable.
using Def = std::vector<Term>;

bool def_contains(const Def& d, const Term& t) {
  return std::binary_search(d.begin(), d.end(), t);
}
void def_erase(Def& d, const Term& t) {
  auto it = std::lower_bound(d.begin(), d.end(), t);
  assert(it != d.end() && *it == t);
  d.erase(it);
}
void def_insert(Def& d, const Term& t) {
  auto it = std::lower_bound(d.begin(), d.end(), t);
  assert(it == d.end() || !(*it == t));
  d.insert(it, t);
}

class Compressor {
 public:
  Compressor(const Program& flat, const CompressOptions& opt) : opt_(opt) {
    if (!flat.is_flat())
      throw std::invalid_argument("repair_compress: program must be flat (constants only)");
    num_consts_ = flat.num_consts;

    // One definition per *output*; the paper's originals are the returned
    // variables. (Flat programs assign each output var exactly once.)
    std::vector<Def> defs_by_var(flat.num_vars);
    std::vector<BitRow> val_by_var(flat.num_vars, BitRow(num_consts_));
    for (const Instruction& ins : flat.body) {
      Def d;
      BitRow v(num_consts_);
      for (const Term& t : ins.args) {
        // Fold duplicate constants by cancellation.
        if (def_contains(d, t)) def_erase(d, t); else def_insert(d, t);
        v.flip(t.id);
      }
      defs_by_var[ins.target] = std::move(d);
      val_by_var[ins.target] = std::move(v);
    }

    const size_t n = flat.outputs.size();
    defs_.resize(n);
    values_.resize(n);
    alias_.assign(n, Term::var(UINT32_MAX));
    alive_.assign(n, true);
    traj_.resize(n);
    n_alive_ = 0;
    for (size_t i = 0; i < n; ++i) {
      defs_[i] = defs_by_var[flat.outputs[i]];
      values_[i] = val_by_var[flat.outputs[i]];
      if (defs_[i].empty())
        throw std::invalid_argument("repair_compress: output with zero value");
      if (defs_[i].size() == 1) {
        alias_[i] = defs_[i][0];
        alive_[i] = false;
      } else {
        ++n_alive_;
      }
    }
    // Count every pair first, then file each into its bucket once.
    for (size_t i = 0; i < n; ++i) {
      if (!alive_[i]) continue;
      const Def& d = defs_[i];
      for (size_t a = 0; a < d.size(); ++a)
        for (size_t b = a + 1; b < d.size(); ++b) ++counts_[TermPair::make(d[a], d[b])];
    }
    for (const auto& [p, c] : counts_) {
      file(p, c);
      max_count_ = std::max<size_t>(max_count_, c);
    }
  }

  Program run() {
    while (n_alive_ > 0) {
      const TermPair p = choose_pair();
      apply_pair(p);
      if (opt_.use_rebuild) rebuild_all();
    }
    return assemble();
  }

 private:
  // ---- pair bookkeeping -------------------------------------------------
  // Most pairs occur once, and a count-1 pair is chosen only when no pair
  // occurs twice. So buckets_[1] is left empty until choose_pair first needs
  // it, and maintained from then on; counts_ alone tracks singles before.
  void file(const TermPair& p, uint32_t c) {
    if (c == 1 && !singles_filed_) return;
    if (buckets_.size() <= c) buckets_.resize(c + 1);
    buckets_[c].insert(p);
  }
  void unfile(const TermPair& p, uint32_t c) {
    if (c > 1 || singles_filed_) buckets_[c].erase(p);
  }
  void inc_pair(const TermPair& p) {
    uint32_t& c = counts_[p];
    if (c > 0) unfile(p, c);
    file(p, ++c);
    max_count_ = std::max<size_t>(max_count_, c);
  }
  void dec_pair(const TermPair& p) {
    auto it = counts_.find(p);
    assert(it != counts_.end() && it->second > 0);
    unfile(p, it->second);
    if (--it->second == 0) {
      counts_.erase(it);
    } else {
      file(p, it->second);
    }
  }
  void add_all_pairs(const Def& d) {
    for (size_t i = 0; i < d.size(); ++i)
      for (size_t j = i + 1; j < d.size(); ++j) inc_pair(TermPair::make(d[i], d[j]));
  }
  void remove_all_pairs(const Def& d) {
    for (size_t i = 0; i < d.size(); ++i)
      for (size_t j = i + 1; j < d.size(); ++j) dec_pair(TermPair::make(d[i], d[j]));
  }

  TermPair choose_pair() {
    while (max_count_ > 1 && buckets_[max_count_].empty()) --max_count_;
    assert(max_count_ > 0 && "alive defs always expose at least one pair");
    if (max_count_ == 1 && !singles_filed_) {
      singles_filed_ = true;
      for (const auto& [p, c] : counts_)
        if (c == 1) file(p, c);
    }
    return *buckets_[max_count_].begin();  // ⊏-smallest among most frequent
  }

  // ---- temporals ---------------------------------------------------------
  const BitRow& term_value(const Term& t) {
    if (t.is_const()) {
      if (const_values_.empty()) {
        const_values_.resize(num_consts_, BitRow(num_consts_));
        for (uint32_t c = 0; c < num_consts_; ++c) const_values_[c].flip(c);
      }
      return const_values_[t.id];
    }
    return temp_values_[t.id];
  }

  Term get_or_make_temporal(const TermPair& p) {
    auto it = temp_lookup_.find(p);
    if (it != temp_lookup_.end()) return Term::var(it->second);
    const uint32_t id = static_cast<uint32_t>(temps_.size());
    temps_.push_back({id, {p.lo, p.hi}});
    BitRow v = term_value(p.lo);
    v ^= term_value(p.hi);
    temp_values_.push_back(std::move(v));
    temp_lookup_.emplace(p, id);
    return Term::var(id);
  }

  // ---- core steps ----------------------------------------------------------
  void apply_pair(const TermPair& p) {
    const Term t = get_or_make_temporal(p);
    // Snapshot: affected defs are those containing both halves.
    for (size_t i = 0; i < defs_.size(); ++i) {
      if (!alive_[i]) continue;
      Def& d = defs_[i];
      if (!def_contains(d, p.lo) || !def_contains(d, p.hi)) continue;

      // Removed terms: the pair, plus t itself when already present
      // (x ⊕ y ⊕ t = 0 — ⊕-cancellation).
      std::vector<Term> removed = {p.lo, p.hi};
      const bool cancel = def_contains(d, t);
      if (cancel) removed.push_back(t);

      // Incremental pair-count update in O(|def|).
      for (const Term& z : d) {
        if (std::find(removed.begin(), removed.end(), z) != removed.end()) continue;
        for (const Term& r : removed) dec_pair(TermPair::make(r, z));
        if (!cancel) inc_pair(TermPair::make(t, z));
      }
      for (size_t a = 0; a < removed.size(); ++a)
        for (size_t b = a + 1; b < removed.size(); ++b)
          dec_pair(TermPair::make(removed[a], removed[b]));

      for (const Term& r : removed) def_erase(d, r);
      if (!cancel) def_insert(d, t);

      assert(!d.empty() && "definition value cannot become zero");
      if (d.size() == 1) retire(i, d[0]);
    }
  }

  void retire(size_t orig, const Term& alias) {
    alias_[orig] = alias;
    alive_[orig] = false;
    --n_alive_;
    defs_[orig].clear();
    traj_[orig] = {};
  }

  /// Rebuild's greedy run for one original, replayed incrementally.
  struct Trajectory {
    std::vector<uint32_t> picks;  // temporals XORed in, in pick order
    std::vector<BitRow> rems;     // remainder before each pick, then the final one
    std::vector<size_t> sizes;    // popcounts of rems
    uint32_t scanned = 0;         // temporals [0, scanned) already considered
  };

  void rebuild_all() {
    for (size_t i = 0; i < defs_.size(); ++i) {
      if (!alive_[i]) continue;
      rebuild_one(i);
    }
  }

  /// Rebuild(v) (§4.4): XOR temporal values into v's remainder greedily,
  /// each step taking the temporal that shrinks it most (strict <, so ties
  /// keep the earlier temporal), and rewrite v when that is shorter. The
  /// trajectory is kept from the previous call and replayed against only the
  /// temporals minted since: a newer temporal changes step j only by beating
  /// step j's pick strictly, so the first step where one does is where the
  /// greedy resumes; earlier steps stand as they are.
  void rebuild_one(size_t orig) {
    Trajectory& tr = traj_[orig];
    if (tr.rems.empty()) {
      tr.rems.push_back(values_[orig]);
      tr.sizes.push_back(values_[orig].popcount());
    }
    const uint32_t n_temps = static_cast<uint32_t>(temps_.size());
    for (size_t j = 0; j < tr.rems.size() && tr.scanned < n_temps; ++j) {
      // To beat: the size step j reached, or the final remainder's.
      size_t best_size = tr.sizes[std::min(j + 1, tr.sizes.size() - 1)];
      uint32_t best = UINT32_MAX;
      for (uint32_t t = tr.scanned; t < n_temps; ++t) {
        const size_t sz = tr.rems[j].xor_popcount(temp_values_[t]);
        if (sz < best_size) {
          best_size = sz;
          best = t;
        }
      }
      if (best == UINT32_MAX) continue;
      tr.picks.resize(j);
      tr.rems.resize(j + 1);
      tr.sizes.resize(j + 1);
      for (; best != UINT32_MAX; best = greedy_step(tr, best_size)) {
        tr.picks.push_back(best);
        tr.rems.push_back(tr.rems.back() ^ temp_values_[best]);
        tr.sizes.push_back(best_size);
      }
      break;
    }
    tr.scanned = n_temps;

    const size_t new_size = tr.sizes.back() + tr.picks.size();
    if (new_size >= defs_[orig].size()) return;

    Def nd;
    nd.reserve(new_size);
    for (uint32_t t : tr.picks) nd.push_back(Term::var(t));
    for (uint32_t c : tr.rems.back().ones()) nd.push_back(Term::constant(c));
    std::sort(nd.begin(), nd.end());

    remove_all_pairs(defs_[orig]);
    defs_[orig] = std::move(nd);
    if (defs_[orig].size() == 1) {
      retire(orig, defs_[orig][0]);
    } else {
      add_all_pairs(defs_[orig]);
    }
  }

  /// The temporal that shrinks `tr`'s last remainder most among all not yet
  /// picked (its size in `best_size`), or UINT32_MAX when none shrinks it.
  uint32_t greedy_step(const Trajectory& tr, size_t& best_size) const {
    const BitRow& rem = tr.rems.back();
    best_size = tr.sizes.back();
    uint32_t best = UINT32_MAX;
    for (uint32_t t = 0; t < temps_.size(); ++t) {
      const size_t sz = rem.xor_popcount(temp_values_[t]);
      if (sz < best_size &&
          std::find(tr.picks.begin(), tr.picks.end(), t) == tr.picks.end()) {
        best_size = sz;
        best = t;
      }
    }
    return best;
  }

  // ---- final assembly -----------------------------------------------------
  Program assemble() {
    // Liveness from aliases downward (Rebuild can orphan temporals).
    std::vector<bool> live(temps_.size(), false);
    std::vector<uint32_t> work;
    for (const Term& a : alias_)
      if (a.is_var() && !live[a.id]) {
        live[a.id] = true;
        work.push_back(a.id);
      }
    while (!work.empty()) {
      const uint32_t t = work.back();
      work.pop_back();
      for (const Term& arg : temps_[t].args) {
        if (arg.is_var() && !live[arg.id]) {
          live[arg.id] = true;
          work.push_back(arg.id);
        }
      }
    }

    std::vector<uint32_t> new_id(temps_.size(), UINT32_MAX);
    Program out;
    out.num_consts = num_consts_;
    for (uint32_t t = 0; t < temps_.size(); ++t) {
      if (!live[t]) continue;
      new_id[t] = static_cast<uint32_t>(out.body.size());
      Instruction ins;
      ins.target = new_id[t];
      for (const Term& a : temps_[t].args)
        ins.args.push_back(a.is_var() ? Term::var(new_id[a.id]) : a);
      out.body.push_back(std::move(ins));
    }
    out.num_vars = static_cast<uint32_t>(out.body.size());
    for (const Term& a : alias_) {
      if (a.is_var()) {
        out.outputs.push_back(new_id[a.id]);
      } else {
        // Output equals a constant: materialize a unary copy.
        const uint32_t v = out.num_vars++;
        out.body.push_back({v, {a}});
        out.outputs.push_back(v);
      }
    }
    return out;
  }

  CompressOptions opt_;
  uint32_t num_consts_ = 0;

  std::vector<Def> defs_;       // live original definitions, by output index
  std::vector<BitRow> values_;  // fixed semantic values of the originals
  std::vector<Term> alias_;     // final term of each retired original
  std::vector<bool> alive_;
  size_t n_alive_ = 0;

  std::vector<Trajectory> traj_;  // Rebuild's runs by output index (XorRePair only)

  std::vector<Instruction> temps_;   // t_i <- lo ⊕ hi, ids in generation order
  std::vector<BitRow> temp_values_;
  std::unordered_map<TermPair, uint32_t, TermPairHash> temp_lookup_;
  std::vector<BitRow> const_values_;  // lazily built unit vectors

  std::unordered_map<TermPair, uint32_t, TermPairHash> counts_;
  std::vector<std::set<TermPair>> buckets_;  // by count, ⊏-ordered inside (see file())
  size_t max_count_ = 0;
  bool singles_filed_ = false;  // buckets_[1] is filled and maintained
};

}  // namespace

Program repair_compress(const Program& flat, const CompressOptions& opt) {
  Program out = Compressor(flat, opt).run();
  out.name = flat.name.empty() ? flat.name : flat.name + (opt.use_rebuild ? "+xorrepair" : "+repair");
  return out;
}

Program xor_repair_compress(const Program& flat) {
  return repair_compress(flat, CompressOptions{.use_rebuild = true});
}

}  // namespace xorec::slp
