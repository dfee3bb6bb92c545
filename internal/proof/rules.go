// Package proof defines BCF's proof format and implements the in-kernel
// proof checker.
//
// A proof establishes a refinement condition C by refutation: the only
// assumption available is ¬C, and the final step must conclude false.
// Each step names a rule, premise step indexes, and expression arguments;
// conclusions are never transmitted — the checker recomputes them
// (halving proof size, §5 "BCF Format").
//
// Two families of steps exist:
//
//   - Formula steps conclude a boolean term. These cover structural
//     decomposition (and_elim, not_implies…), an equality calculus
//     (symm/trans/cong/eq_mp), a catalog of algebraic rewrites each
//     checkable by local pattern matching or ground evaluation, and
//     interval lemmas for the bvule fragment.
//
//   - Clause steps conclude a CNF clause over the Tseitin variables of
//     bitblast.Encode(¬C). bb_clause introduces input clauses (the
//     checker re-runs the deterministic bit-blasting itself — the
//     "bit-blasting rule"), and resolve performs binary resolution. The
//     empty clause concludes false.
//
// With resolution and bit-blasting the system is complete for the
// fixed-width bit-vector conditions BCF generates (§5 Proof Check); the
// other rules exist to keep common proofs small. The checker accepts
// only the rules the prover emits, plus not_true_elim, which closes the
// paper's Figure 3 proof.
package proof

import "fmt"

// RuleID identifies a primitive proof rule.
type RuleID uint16

// Primitive rules. The numbering is part of the wire format; a blank
// entry is a reserved id that names no rule, and stage 1 rejects it.
const (
	RuleInvalid RuleID = iota

	// Assumption and structural decomposition.
	RuleAssume        // ⊢ ¬C (the negated stored condition)
	RuleNotImplies1   // ¬(P⇒Q) ⊢ P
	RuleNotImplies2   // ¬(P⇒Q) ⊢ ¬Q
	RuleAndElim1      // P∧Q ⊢ P
	RuleAndElim2      // P∧Q ⊢ Q
	_                 // 6: reserved
	_                 // 7: reserved
	_                 // 8: reserved
	RuleContradiction // P, ¬P ⊢ false
	RuleNotTrueElim   // ¬P, (= P true) ⊢ false
	_                 // 11: reserved
	RuleEqMp          // P, (= P Q) ⊢ Q
	RuleEqMpRev       // P, (= Q P) ⊢ Q
	RuleAndIntro      // P, Q ⊢ P∧Q
	RuleNotUltElim    // ¬(bvult a b) ⊢ (bvule b a)
	RuleNotUleElim    // ¬(bvule a b) ⊢ (bvult b a)

	// Equality calculus.
	_             // 17: reserved
	RuleSymm      // (= a b) ⊢ (= b a)
	RuleTrans     // (= a b), (= b c) ⊢ (= a c)
	RuleCong      // (= a b), args [t, i] with t.Args[i] ≡ a ⊢ (= t t[i↦b])
	RuleEvalConst // arg ground t ⊢ (= t const(eval(t)))  [the paper's eval_bool]

	// Algebraic rewrite catalog: arg t matching the pattern ⊢ (= t rhs).
	RuleRwAddSubCancelR // (bvadd a (bvsub b a)) = b  [the paper's sub_elim]
	RuleRwAddSubCancelL // (bvadd (bvsub b a) a) = b
	RuleRwSubAddCancelR // (bvsub (bvadd a b) a) = b
	RuleRwSubAddCancelL // (bvsub (bvadd a b) b) = a
	RuleRwSubSelf       // (bvsub a a) = 0
	RuleRwAddZeroR      // (bvadd a 0) = a
	RuleRwAddZeroL      // (bvadd 0 a) = a
	RuleRwSubZero       // (bvsub a 0) = a
	RuleRwAndZeroR      // (bvand a 0) = 0
	RuleRwAndZeroL      // (bvand 0 a) = 0
	RuleRwAndSelf       // (bvand a a) = a
	RuleRwAndConstFold  // (bvand (bvand a c1) c2) = (bvand a c1&c2)
	RuleRwOrZeroR       // (bvor a 0) = a
	RuleRwOrZeroL       // (bvor 0 a) = a
	RuleRwOrSelf        // (bvor a a) = a
	RuleRwXorSelf       // (bvxor a a) = 0
	RuleRwXorZeroR      // (bvxor a 0) = a
	RuleRwXorZeroL      // (bvxor 0 a) = a
	RuleRwMulZeroR      // (bvmul a 0) = 0
	RuleRwMulZeroL      // (bvmul 0 a) = 0
	RuleRwMulOneR       // (bvmul a 1) = a
	RuleRwMulOneL       // (bvmul 1 a) = a
	RuleRwShiftZero     // (bvshl/bvlshr/bvashr a 0) = a
	RuleRwNotNot        // (bvnot (bvnot a)) = a
	_                   // 46: reserved
	_                   // 47: reserved
	RuleRwZExtZero      // (zext 0) = 0
	RuleRwExtractZExt   // (extract[lo=0,w] (zext_W a)) = a when w = width(a)

	// Interval lemmas for the bvule fragment (side conditions verified on
	// constants by the checker).
	RuleLemmaAndUleR    // const c ⊢ (bvule (bvand a c) c)
	RuleLemmaAndUleL    // const c ⊢ (bvule (bvand c a) c)
	RuleLemmaUleMax     // arg a ⊢ (bvule a 2^w-1)
	RuleLemmaZExtBound  // arg (zext a) ⊢ (bvule (zext a) 2^srcw-1)
	RuleLemmaLshrBound  // arg (bvlshr a c), const c ⊢ (bvule (bvlshr a c) 2^w-1 >> c)
	RuleLemmaUleTrans   // (bvule a b), (bvule b c) ⊢ (bvule a c)
	RuleLemmaUleAdd     // (bvule a c1), (bvule b c2), c1+c2 no wrap ⊢ (bvule (bvadd a b) c1+c2)
	RuleLemmaUleShl     // (bvule a c), const k, c<<k no wrap ⊢ (bvule (bvshl a k) c<<k)
	RuleLemmaUleConst   // consts c1 <= c2 ⊢ (bvule c1 c2)
	RuleLemmaEqBound    // (= a c), const c ⊢ (bvule a c)
	RuleLemmaUleAndMono // (bvule a c) ⊢ (bvule (bvand a b) c)
	RuleLemmaZeroUle    // arg a ⊢ (bvule 0 a)
	RuleLemmaZExtMono   // (bvule a c), arg (zext a) ⊢ (bvule (zext a) zext(c))
	RuleLemmaUltUle     // (bvult a b) ⊢ (bvule a b)
	RuleLemmaDivRemLe   // (bvule a c), arg t=(bvudiv/bvurem a b) ⊢ (bvule t c)
	RuleLemmaURemBound  // arg t=(bvurem a c), const c != 0 ⊢ (bvule t c-1)

	// Bit-level rules over the Tseitin encoding of ¬C.
	RuleBitblastClause // premise ¬C step; arg clause index ⊢ that input clause
	RuleResolve        // clause steps A, B; pivot ⊢ resolvent

	// NumRules bounds the rule space; ids at or above it are invalid.
	NumRules
)

// ruleNames names every rule; a reserved id has no name.
var ruleNames = [NumRules]string{
	RuleAssume: "assume", RuleNotImplies1: "not_implies1", RuleNotImplies2: "not_implies2",
	RuleAndElim1: "and_elim1", RuleAndElim2: "and_elim2",
	RuleContradiction: "contradiction", RuleNotTrueElim: "not_true_elim",
	RuleEqMp: "eq_mp", RuleEqMpRev: "eq_mp_rev",
	RuleAndIntro: "and_intro", RuleLemmaZeroUle: "lemma_zero_ule",
	RuleNotUltElim: "not_ult_elim", RuleNotUleElim: "not_ule_elim",
	RuleLemmaZExtMono: "lemma_zext_mono", RuleLemmaUltUle: "lemma_ult_ule",
	RuleLemmaDivRemLe: "lemma_divrem_le", RuleLemmaURemBound: "lemma_urem_bound",
	RuleSymm: "symm", RuleTrans: "trans", RuleCong: "cong",
	RuleEvalConst:       "eval",
	RuleRwAddSubCancelR: "rw_add_sub_cancel_r", RuleRwAddSubCancelL: "rw_add_sub_cancel_l",
	RuleRwSubAddCancelR: "rw_sub_add_cancel_r", RuleRwSubAddCancelL: "rw_sub_add_cancel_l",
	RuleRwSubSelf: "rw_sub_self", RuleRwAddZeroR: "rw_add_zero_r", RuleRwAddZeroL: "rw_add_zero_l",
	RuleRwSubZero: "rw_sub_zero", RuleRwAndZeroR: "rw_and_zero_r", RuleRwAndZeroL: "rw_and_zero_l",
	RuleRwAndSelf: "rw_and_self", RuleRwAndConstFold: "rw_and_const_fold",
	RuleRwOrZeroR: "rw_or_zero_r", RuleRwOrZeroL: "rw_or_zero_l", RuleRwOrSelf: "rw_or_self",
	RuleRwXorSelf: "rw_xor_self", RuleRwXorZeroR: "rw_xor_zero_r", RuleRwXorZeroL: "rw_xor_zero_l",
	RuleRwMulZeroR: "rw_mul_zero_r", RuleRwMulZeroL: "rw_mul_zero_l",
	RuleRwMulOneR: "rw_mul_one_r", RuleRwMulOneL: "rw_mul_one_l",
	RuleRwShiftZero: "rw_shift_zero", RuleRwNotNot: "rw_not_not",
	RuleRwZExtZero: "rw_zext_zero", RuleRwExtractZExt: "rw_extract_zext",
	RuleLemmaAndUleR: "lemma_and_ule_r", RuleLemmaAndUleL: "lemma_and_ule_l",
	RuleLemmaUleMax: "lemma_ule_max", RuleLemmaZExtBound: "lemma_zext_bound",
	RuleLemmaLshrBound: "lemma_lshr_bound", RuleLemmaUleTrans: "lemma_ule_trans",
	RuleLemmaUleAdd: "lemma_ule_add", RuleLemmaUleShl: "lemma_ule_shl",
	RuleLemmaUleConst: "lemma_ule_const", RuleLemmaEqBound: "lemma_eq_bound",
	RuleLemmaUleAndMono: "lemma_ule_and_mono",
	RuleBitblastClause:  "bb_clause", RuleResolve: "resolve",
}

func (r RuleID) String() string {
	if r.Valid() {
		return ruleNames[r]
	}
	return fmt.Sprintf("rule(%d)", uint16(r))
}

// Valid reports whether the id names a primitive rule: neither 0, nor
// reserved, nor at or above NumRules.
func (r RuleID) Valid() bool { return r < NumRules && ruleNames[r] != "" }
