#include "la/catalog.h"

#include <initializer_list>

#include "la/encoder.h"
#include "la/vrem.h"

namespace hadad::la {

namespace {

using chase::Atom;
using chase::Constraint;
using chase::Cst;
using chase::MakeAtom;
using chase::MakeEgd;
using chase::MakeTgd;
using chase::Term;
using chase::Var;

Atom A(const char* pred, std::initializer_list<Term> args) {
  return MakeAtom(pred, std::vector<Term>(args));
}

// Emits lhs → rhs and rhs → lhs for an equality-shaped property. Variables
// appearing on only one side are existential in the direction that
// introduces them.
void Both(const std::string& name, std::vector<Atom> lhs,
          std::vector<Atom> rhs, std::vector<Constraint>& out) {
  out.push_back(MakeTgd(name + ">", lhs, rhs));
  out.push_back(MakeTgd(name + "<", std::move(rhs), std::move(lhs)));
}

}  // namespace

std::vector<Constraint> MmcCoreKeys() {
  std::vector<Constraint> out;
  // I_name: one class per logical name.
  out.push_back(MakeEgd("I_name",
                        {A(vrem::kName, {Var("M"), Var("n")}),
                         A(vrem::kName, {Var("N"), Var("n")})},
                        {{Var("M"), Var("N")}}));
  // I_size: the class determines the dimensions.
  out.push_back(MakeEgd("I_size",
                        {A(vrem::kSize, {Var("M"), Var("k1"), Var("z1")}),
                         A(vrem::kSize, {Var("M"), Var("k2"), Var("z2")})},
                        {{Var("k1"), Var("k2")}, {Var("z1"), Var("z2")}}));
  // Scalar literals are interned per value.
  out.push_back(MakeEgd("I_sconst",
                        {A(vrem::kSconst, {Var("S1"), Var("v")}),
                         A(vrem::kSconst, {Var("S2"), Var("v")})},
                        {{Var("S1"), Var("S2")}}));
  // I_zero / I_iden: one zero (identity) class per shape.
  out.push_back(MakeEgd("I_zero",
                        {A(vrem::kZero, {Var("O1")}),
                         A(vrem::kSize, {Var("O1"), Var("k"), Var("z")}),
                         A(vrem::kZero, {Var("O2")}),
                         A(vrem::kSize, {Var("O2"), Var("k"), Var("z")})},
                        {{Var("O1"), Var("O2")}}));
  out.push_back(MakeEgd("I_iden",
                        {A(vrem::kIdentity, {Var("I1")}),
                         A(vrem::kSize, {Var("I1"), Var("k"), Var("k")}),
                         A(vrem::kIdentity, {Var("I2")}),
                         A(vrem::kSize, {Var("I2"), Var("k"), Var("k")})},
                        {{Var("I1"), Var("I2")}}));
  return out;
}

std::vector<Constraint> MmcFunctionalKeys() {
  std::vector<Constraint> out;
  // Unary functional relations: op(M, R1) ∧ op(M, R2) → R1 = R2.
  for (const char* pred :
       {vrem::kTr, vrem::kInvM, vrem::kDet, vrem::kTrace, vrem::kDiag,
        vrem::kExp, vrem::kAdj, vrem::kRev, vrem::kSum, vrem::kRowSums,
        vrem::kColSums, vrem::kMin, vrem::kMax, vrem::kMean, vrem::kVar,
        vrem::kRowMin, vrem::kRowMax, vrem::kRowMean, vrem::kRowVar,
        vrem::kColMin, vrem::kColMax, vrem::kColMean, vrem::kColVar,
        vrem::kCho, vrem::kInvS}) {
    out.push_back(MakeEgd(std::string("I_") + pred,
                          {A(pred, {Var("M"), Var("R1")}),
                           A(pred, {Var("M"), Var("R2")})},
                          {{Var("R1"), Var("R2")}}));
  }
  // Binary functional relations.
  for (const char* pred :
       {vrem::kMultiM, vrem::kMultiMS, vrem::kMultiE, vrem::kAddM,
        vrem::kDivM, vrem::kDivMS, vrem::kSumD, vrem::kProductD,
        vrem::kCbind, vrem::kMultiS, vrem::kAddS, vrem::kDivS}) {
    out.push_back(MakeEgd(std::string("I_") + pred,
                          {A(pred, {Var("M"), Var("N"), Var("R1")}),
                           A(pred, {Var("M"), Var("N"), Var("R2")})},
                          {{Var("R1"), Var("R2")}}));
  }
  // Two-output decompositions.
  out.push_back(MakeEgd("I_qr",
                        {A(vrem::kQr, {Var("M"), Var("Q1"), Var("R1")}),
                         A(vrem::kQr, {Var("M"), Var("Q2"), Var("R2")})},
                        {{Var("Q1"), Var("Q2")}, {Var("R1"), Var("R2")}}));
  out.push_back(MakeEgd("I_lu",
                        {A(vrem::kLu, {Var("M"), Var("L1"), Var("U1")}),
                         A(vrem::kLu, {Var("M"), Var("L2"), Var("U2")})},
                        {{Var("L1"), Var("L2")}, {Var("U1"), Var("U2")}}));
  out.push_back(MakeEgd(
      "I_lup",
      {A(vrem::kLup, {Var("M"), Var("L1"), Var("U1"), Var("P1")}),
       A(vrem::kLup, {Var("M"), Var("L2"), Var("U2"), Var("P2")})},
      {{Var("L1"), Var("L2")},
       {Var("U1"), Var("U2")},
       {Var("P1"), Var("P2")}}));
  return out;
}

std::vector<Constraint> MmcLaProperties() {
  std::vector<Constraint> out;

  // ----- Addition (Table 8) ------------------------------------------------
  // M + N = N + M.
  out.push_back(MakeTgd("add-comm",
                        {A(vrem::kAddM, {Var("M"), Var("N"), Var("R")})},
                        {A(vrem::kAddM, {Var("N"), Var("M"), Var("R")})}));
  // (M + N) + D = M + (N + D).
  Both("add-assoc",
       {A(vrem::kAddM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kAddM, {Var("R1"), Var("D"), Var("R2")})},
       {A(vrem::kAddM, {Var("N"), Var("D"), Var("R3")}),
        A(vrem::kAddM, {Var("M"), Var("R3"), Var("R2")})},
       out);
  // c (M + N) = c M + c N.
  Both("scalar-dist-add",
       {A(vrem::kAddM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kMultiMS, {Var("c"), Var("R1"), Var("R2")})},
       {A(vrem::kMultiMS, {Var("c"), Var("M"), Var("R3")}),
        A(vrem::kMultiMS, {Var("c"), Var("N"), Var("R4")}),
        A(vrem::kAddM, {Var("R3"), Var("R4"), Var("R2")})},
       out);
  // (c + d) M = c M + d M.
  Both("scalar-sum-dist",
       {A(vrem::kAddS, {Var("c"), Var("d"), Var("s")}),
        A(vrem::kMultiMS, {Var("s"), Var("M"), Var("R1")})},
       {A(vrem::kMultiMS, {Var("c"), Var("M"), Var("R2")}),
        A(vrem::kMultiMS, {Var("d"), Var("M"), Var("R3")}),
        A(vrem::kAddM, {Var("R2"), Var("R3"), Var("R1")})},
       out);
  // M + 0 = M.
  out.push_back(MakeEgd("add-zero",
                        {A(vrem::kZero, {Var("O")}),
                         A(vrem::kAddM, {Var("M"), Var("O"), Var("R")})},
                        {{Var("R"), Var("M")}}));

  // ----- Product (Table 8) -------------------------------------------------
  // (M N) D = M (N D).
  Both("mul-assoc",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kMultiM, {Var("R1"), Var("D"), Var("R2")})},
       {A(vrem::kMultiM, {Var("N"), Var("D"), Var("R3")}),
        A(vrem::kMultiM, {Var("M"), Var("R3"), Var("R2")})},
       out);
  // M (N + D) = M N + M D.
  Both("mul-dist-left",
       {A(vrem::kAddM, {Var("N"), Var("D"), Var("R1")}),
        A(vrem::kMultiM, {Var("M"), Var("R1"), Var("R2")})},
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R3")}),
        A(vrem::kMultiM, {Var("M"), Var("D"), Var("R4")}),
        A(vrem::kAddM, {Var("R3"), Var("R4"), Var("R2")})},
       out);
  // (M + N) D = M D + N D.
  Both("mul-dist-right",
       {A(vrem::kAddM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kMultiM, {Var("R1"), Var("D"), Var("R2")})},
       {A(vrem::kMultiM, {Var("M"), Var("D"), Var("R3")}),
        A(vrem::kMultiM, {Var("N"), Var("D"), Var("R4")}),
        A(vrem::kAddM, {Var("R3"), Var("R4"), Var("R2")})},
       out);
  // d (M N) = (d M) N.
  Both("scalar-mul-left",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kMultiMS, {Var("d"), Var("R1"), Var("R2")})},
       {A(vrem::kMultiMS, {Var("d"), Var("M"), Var("R3")}),
        A(vrem::kMultiM, {Var("R3"), Var("N"), Var("R2")})},
       out);
  // d (M N) = M (d N).
  Both("scalar-mul-right",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kMultiMS, {Var("d"), Var("R1"), Var("R2")})},
       {A(vrem::kMultiMS, {Var("d"), Var("N"), Var("R3")}),
        A(vrem::kMultiM, {Var("M"), Var("R3"), Var("R2")})},
       out);
  // c (d M) = (c d) M.
  out.push_back(
      MakeTgd("scalar-fold",
              {A(vrem::kMultiMS, {Var("d"), Var("M"), Var("R1")}),
               A(vrem::kMultiMS, {Var("c"), Var("R1"), Var("R2")})},
              {A(vrem::kMultiS, {Var("c"), Var("d"), Var("s")}),
               A(vrem::kMultiMS, {Var("s"), Var("M"), Var("R2")})}));
  // I M = M and M I = M.
  out.push_back(MakeEgd("iden-mul-left",
                        {A(vrem::kIdentity, {Var("I")}),
                         A(vrem::kMultiM, {Var("I"), Var("M"), Var("R")})},
                        {{Var("R"), Var("M")}}));
  out.push_back(MakeEgd("iden-mul-right",
                        {A(vrem::kIdentity, {Var("I")}),
                         A(vrem::kMultiM, {Var("M"), Var("I"), Var("R")})},
                        {{Var("R"), Var("M")}}));
  // M^{-1} M = I = M M^{-1}.
  out.push_back(MakeTgd("inv-cancel-left",
                        {A(vrem::kInvM, {Var("M"), Var("R1")}),
                         A(vrem::kMultiM, {Var("R1"), Var("M"), Var("R2")})},
                        {A(vrem::kIdentity, {Var("R2")})}));
  out.push_back(MakeTgd("inv-cancel-right",
                        {A(vrem::kInvM, {Var("M"), Var("R1")}),
                         A(vrem::kMultiM, {Var("M"), Var("R1"), Var("R2")})},
                        {A(vrem::kIdentity, {Var("R2")})}));
  // Hadamard commutes.
  out.push_back(MakeTgd("hadamard-comm",
                        {A(vrem::kMultiE, {Var("M"), Var("N"), Var("R")})},
                        {A(vrem::kMultiE, {Var("N"), Var("M"), Var("R")})}));
  // Scalar product commutes.
  out.push_back(MakeTgd("multiS-comm",
                        {A(vrem::kMultiS, {Var("a"), Var("b"), Var("c")})},
                        {A(vrem::kMultiS, {Var("b"), Var("a"), Var("c")})}));
  out.push_back(MakeTgd("addS-comm",
                        {A(vrem::kAddS, {Var("a"), Var("b"), Var("c")})},
                        {A(vrem::kAddS, {Var("b"), Var("a"), Var("c")})}));

  // ----- Transposition (Table 8) --------------------------------------------
  // (M^T)^T = M, generalized to the involution tr(M,R) → tr(R,M).
  out.push_back(MakeTgd("tr-involution",
                        {A(vrem::kTr, {Var("M"), Var("R")})},
                        {A(vrem::kTr, {Var("R"), Var("M")})}));
  // (M N)^T = N^T M^T.
  Both("tr-mul",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kTr, {Var("R1"), Var("R2")})},
       {A(vrem::kTr, {Var("M"), Var("R3")}),
        A(vrem::kTr, {Var("N"), Var("R4")}),
        A(vrem::kMultiM, {Var("R4"), Var("R3"), Var("R2")})},
       out);
  // (M + N)^T = M^T + N^T.
  Both("tr-add",
       {A(vrem::kAddM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kTr, {Var("R1"), Var("R2")})},
       {A(vrem::kTr, {Var("M"), Var("R3")}),
        A(vrem::kTr, {Var("N"), Var("R4")}),
        A(vrem::kAddM, {Var("R3"), Var("R4"), Var("R2")})},
       out);
  // (c M)^T = c M^T.
  Both("tr-scalar",
       {A(vrem::kMultiMS, {Var("c"), Var("M"), Var("R1")}),
        A(vrem::kTr, {Var("R1"), Var("R2")})},
       {A(vrem::kTr, {Var("M"), Var("R3")}),
        A(vrem::kMultiMS, {Var("c"), Var("R3"), Var("R2")})},
       out);
  // (M ⊙ N)^T = M^T ⊙ N^T.
  Both("tr-hadamard",
       {A(vrem::kMultiE, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kTr, {Var("R1"), Var("R2")})},
       {A(vrem::kTr, {Var("M"), Var("R3")}),
        A(vrem::kTr, {Var("N"), Var("R4")}),
        A(vrem::kMultiE, {Var("R3"), Var("R4"), Var("R2")})},
       out);
  // I^T = I; O^T = O for square zero matrices.
  out.push_back(MakeTgd("tr-identity", {A(vrem::kIdentity, {Var("I")})},
                        {A(vrem::kTr, {Var("I"), Var("I")})}));
  out.push_back(MakeTgd("tr-zero",
                        {A(vrem::kZero, {Var("O")}),
                         A(vrem::kSize, {Var("O"), Var("k"), Var("k")})},
                        {A(vrem::kTr, {Var("O"), Var("O")})}));

  // ----- Inverses (Table 8) --------------------------------------------------
  // (M^{-1})^{-1} = M as the involution invM(M,R) → invM(R,M).
  out.push_back(MakeTgd("inv-involution",
                        {A(vrem::kInvM, {Var("M"), Var("R")})},
                        {A(vrem::kInvM, {Var("R"), Var("M")})}));
  // (M N)^{-1} = N^{-1} M^{-1}.
  Both("inv-mul",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kInvM, {Var("R1"), Var("R2")})},
       {A(vrem::kInvM, {Var("M"), Var("R3")}),
        A(vrem::kInvM, {Var("N"), Var("R4")}),
        A(vrem::kMultiM, {Var("R4"), Var("R3"), Var("R2")})},
       out);
  // (M^T)^{-1} = (M^{-1})^T.
  Both("inv-tr",
       {A(vrem::kTr, {Var("M"), Var("R1")}),
        A(vrem::kInvM, {Var("R1"), Var("R2")})},
       {A(vrem::kInvM, {Var("M"), Var("R3")}),
        A(vrem::kTr, {Var("R3"), Var("R2")})},
       out);
  // (k M)^{-1} = k^{-1} M^{-1}.
  out.push_back(
      MakeTgd("inv-scalar",
              {A(vrem::kMultiMS, {Var("k"), Var("M"), Var("R1")}),
               A(vrem::kInvM, {Var("R1"), Var("R2")})},
              {A(vrem::kInvS, {Var("k"), Var("s")}),
               A(vrem::kInvM, {Var("M"), Var("R3")}),
               A(vrem::kMultiMS, {Var("s"), Var("R3"), Var("R2")})}));
  // I^{-1} = I.
  out.push_back(MakeTgd("inv-identity", {A(vrem::kIdentity, {Var("I")})},
                        {A(vrem::kInvM, {Var("I"), Var("I")})}));
  // 1/x involution and the divS(1, x, r) = invS(x, r) bridge.
  out.push_back(MakeTgd("invS-involution",
                        {A(vrem::kInvS, {Var("a"), Var("b")})},
                        {A(vrem::kInvS, {Var("b"), Var("a")})}));
  Both("divS-one-invS",
       {A(vrem::kSconst, {Var("one"), Cst("1")}),
        A(vrem::kDivS, {Var("one"), Var("x"), Var("r")})},
       {A(vrem::kSconst, {Var("one"), Cst("1")}),
        A(vrem::kInvS, {Var("x"), Var("r")})},
       out);

  // ----- Determinant (Table 9) -------------------------------------------------
  // det(M N) = det(M) * det(N).
  Both("det-mul",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kDet, {Var("R1"), Var("d")})},
       {A(vrem::kDet, {Var("M"), Var("d1")}),
        A(vrem::kDet, {Var("N"), Var("d2")}),
        A(vrem::kMultiS, {Var("d1"), Var("d2"), Var("d")})},
       out);
  // det(M^T) = det(M).
  out.push_back(MakeTgd("det-tr",
                        {A(vrem::kTr, {Var("M"), Var("R1")}),
                         A(vrem::kDet, {Var("R1"), Var("d")})},
                        {A(vrem::kDet, {Var("M"), Var("d")})}));
  // det(M^{-1}) = det(M)^{-1}.
  Both("det-inv",
       {A(vrem::kInvM, {Var("M"), Var("R1")}),
        A(vrem::kDet, {Var("R1"), Var("d")})},
       {A(vrem::kDet, {Var("M"), Var("d1")}),
        A(vrem::kInvS, {Var("d1"), Var("d")})},
       out);
  // det(I) = 1.
  out.push_back(MakeEgd("det-identity",
                        {A(vrem::kIdentity, {Var("I")}),
                         A(vrem::kDet, {Var("I"), Var("d")})},
                        {{Var("d"), Cst("1")}}));

  // ----- Adjugate (Table 9) ------------------------------------------------------
  // adj(M)^T = adj(M^T).
  Both("adj-tr",
       {A(vrem::kAdj, {Var("M"), Var("R1")}),
        A(vrem::kTr, {Var("R1"), Var("R2")})},
       {A(vrem::kTr, {Var("M"), Var("R3")}),
        A(vrem::kAdj, {Var("R3"), Var("R2")})},
       out);
  // adj(M)^{-1} = adj(M^{-1}).
  Both("adj-inv",
       {A(vrem::kAdj, {Var("M"), Var("R1")}),
        A(vrem::kInvM, {Var("R1"), Var("R2")})},
       {A(vrem::kInvM, {Var("M"), Var("R3")}),
        A(vrem::kAdj, {Var("R3"), Var("R2")})},
       out);
  // adj(M N) = adj(N) adj(M).
  Both("adj-mul",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kAdj, {Var("R1"), Var("R2")})},
       {A(vrem::kAdj, {Var("N"), Var("R3")}),
        A(vrem::kAdj, {Var("M"), Var("R4")}),
        A(vrem::kMultiM, {Var("R3"), Var("R4"), Var("R2")})},
       out);

  // ----- Trace (Table 9) --------------------------------------------------------
  // trace(M + N) = trace(M) + trace(N).
  Both("trace-add",
       {A(vrem::kAddM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kTrace, {Var("R1"), Var("s1")})},
       {A(vrem::kTrace, {Var("M"), Var("s2")}),
        A(vrem::kTrace, {Var("N"), Var("s3")}),
        A(vrem::kAddS, {Var("s2"), Var("s3"), Var("s1")})},
       out);
  // trace(M N) = trace(N M).
  out.push_back(
      MakeTgd("trace-cyclic",
              {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
               A(vrem::kTrace, {Var("R1"), Var("s")})},
              {A(vrem::kMultiM, {Var("N"), Var("M"), Var("R2")}),
               A(vrem::kTrace, {Var("R2"), Var("s")})}));
  // trace(M^T) = trace(M).
  out.push_back(MakeTgd("trace-tr",
                        {A(vrem::kTr, {Var("M"), Var("R1")}),
                         A(vrem::kTrace, {Var("R1"), Var("s")})},
                        {A(vrem::kTrace, {Var("M"), Var("s")})}));
  // trace(c M) = c trace(M).
  Both("trace-scalar",
       {A(vrem::kMultiMS, {Var("c"), Var("M"), Var("R1")}),
        A(vrem::kTrace, {Var("R1"), Var("s1")})},
       {A(vrem::kTrace, {Var("M"), Var("s2")}),
        A(vrem::kMultiS, {Var("c"), Var("s2"), Var("s1")})},
       out);

  // ----- Direct sum (Table 8) -----------------------------------------------------
  // (M ⊕ N) + (C ⊕ D) = (M + C) ⊕ (N + D).
  out.push_back(
      MakeTgd("dsum-add",
              {A(vrem::kSumD, {Var("M"), Var("N"), Var("R1")}),
               A(vrem::kSumD, {Var("C"), Var("D"), Var("R2")}),
               A(vrem::kAddM, {Var("R1"), Var("R2"), Var("R3")})},
              {A(vrem::kAddM, {Var("M"), Var("C"), Var("R4")}),
               A(vrem::kAddM, {Var("N"), Var("D"), Var("R5")}),
               A(vrem::kSumD, {Var("R4"), Var("R5"), Var("R3")})}));
  // (M ⊕ N)(C ⊕ D) = (M C) ⊕ (N D).
  out.push_back(
      MakeTgd("dsum-mul",
              {A(vrem::kSumD, {Var("M"), Var("N"), Var("R1")}),
               A(vrem::kSumD, {Var("C"), Var("D"), Var("R2")}),
               A(vrem::kMultiM, {Var("R1"), Var("R2"), Var("R3")})},
              {A(vrem::kMultiM, {Var("M"), Var("C"), Var("R4")}),
               A(vrem::kMultiM, {Var("N"), Var("D"), Var("R5")}),
               A(vrem::kSumD, {Var("R4"), Var("R5"), Var("R3")})}));

  // ----- Exponential (Table 9) ------------------------------------------------------
  // exp(0) = I.
  out.push_back(MakeTgd("exp-zero",
                        {A(vrem::kZero, {Var("O")}),
                         A(vrem::kExp, {Var("O"), Var("R")})},
                        {A(vrem::kIdentity, {Var("R")})}));
  // exp(M^T) = exp(M)^T.
  Both("exp-tr",
       {A(vrem::kTr, {Var("M"), Var("R1")}),
        A(vrem::kExp, {Var("R1"), Var("R2")})},
       {A(vrem::kExp, {Var("M"), Var("R3")}),
        A(vrem::kTr, {Var("R3"), Var("R2")})},
       out);

  return out;
}

std::vector<Constraint> MmcDecompositions() {
  std::vector<Constraint> out;
  // I_cho (constraint (4), §6.2.5): every SPD matrix M has CHO(M) = L with
  // M = L L^T and L lower-triangular.
  out.push_back(
      MakeTgd("cho-def", {A(vrem::kType, {Var("M"), Cst(vrem::kTypeSpd)})},
              {A(vrem::kCho, {Var("M"), Var("L1")}),
               A(vrem::kType, {Var("L1"), Cst(vrem::kTypeLower)}),
               A(vrem::kTr, {Var("L1"), Var("L2")}),
               A(vrem::kMultiM, {Var("L1"), Var("L2"), Var("M")})}));
  // QR (constraints (6)-(9)): every named square matrix decomposes.
  out.push_back(
      MakeTgd("qr-def",
              {A(vrem::kName, {Var("M"), Var("n")}),
               A(vrem::kSize, {Var("M"), Var("k"), Var("k")})},
              {A(vrem::kQr, {Var("M"), Var("Q"), Var("R")}),
               A(vrem::kType, {Var("Q"), Cst(vrem::kTypeOrthogonal)}),
               A(vrem::kType, {Var("R"), Cst(vrem::kTypeUpper)}),
               A(vrem::kMultiM, {Var("Q"), Var("R"), Var("M")})}));
  out.push_back(
      MakeTgd("qr-orthogonal-fixpoint",
              {A(vrem::kType, {Var("Q"), Cst(vrem::kTypeOrthogonal)})},
              {A(vrem::kQr, {Var("Q"), Var("Q"), Var("I")}),
               A(vrem::kIdentity, {Var("I")}),
               A(vrem::kMultiM, {Var("Q"), Var("I"), Var("Q")})}));
  out.push_back(
      MakeTgd("qr-upper-fixpoint",
              {A(vrem::kType, {Var("R"), Cst(vrem::kTypeUpper)})},
              {A(vrem::kQr, {Var("R"), Var("I"), Var("R")}),
               A(vrem::kIdentity, {Var("I")}),
               A(vrem::kMultiM, {Var("I"), Var("R"), Var("R")})}));
  out.push_back(MakeTgd("qr-identity-fixpoint",
                        {A(vrem::kIdentity, {Var("I")})},
                        {A(vrem::kQr, {Var("I"), Var("I"), Var("I")})}));
  // LU (Table 10).
  out.push_back(
      MakeTgd("lu-def",
              {A(vrem::kName, {Var("M"), Var("n")}),
               A(vrem::kSize, {Var("M"), Var("k"), Var("k")})},
              {A(vrem::kLu, {Var("M"), Var("L"), Var("U")}),
               A(vrem::kType, {Var("L"), Cst(vrem::kTypeLower)}),
               A(vrem::kType, {Var("U"), Cst(vrem::kTypeUpper)}),
               A(vrem::kMultiM, {Var("L"), Var("U"), Var("M")})}));
  out.push_back(
      MakeTgd("lu-lower-fixpoint",
              {A(vrem::kType, {Var("L"), Cst(vrem::kTypeLower)})},
              {A(vrem::kLu, {Var("L"), Var("L"), Var("I")}),
               A(vrem::kIdentity, {Var("I")}),
               A(vrem::kMultiM, {Var("L"), Var("I"), Var("L")})}));
  out.push_back(
      MakeTgd("lu-upper-fixpoint",
              {A(vrem::kType, {Var("U"), Cst(vrem::kTypeUpper)})},
              {A(vrem::kLu, {Var("U"), Var("I"), Var("U")}),
               A(vrem::kIdentity, {Var("I")}),
               A(vrem::kMultiM, {Var("I"), Var("U"), Var("U")})}));
  out.push_back(MakeTgd("lu-identity-fixpoint",
                        {A(vrem::kIdentity, {Var("I")})},
                        {A(vrem::kLu, {Var("I"), Var("I"), Var("I")})}));
  // Pivoted LU (Table 10): P M = L U.
  out.push_back(
      MakeTgd("lup-def",
              {A(vrem::kName, {Var("M"), Var("n")}),
               A(vrem::kSize, {Var("M"), Var("k"), Var("k")})},
              {A(vrem::kLup, {Var("M"), Var("L"), Var("U"), Var("P")}),
               A(vrem::kType, {Var("L"), Cst(vrem::kTypeLower)}),
               A(vrem::kType, {Var("U"), Cst(vrem::kTypeUpper)}),
               A(vrem::kType, {Var("P"), Cst(vrem::kTypePermutation)}),
               A(vrem::kMultiM, {Var("L"), Var("U"), Var("R")}),
               A(vrem::kMultiM, {Var("P"), Var("M"), Var("R")})}));
  out.push_back(
      MakeTgd("lup-lower-fixpoint",
              {A(vrem::kType, {Var("L"), Cst(vrem::kTypeLower)})},
              {A(vrem::kLup, {Var("L"), Var("L"), Var("I"), Var("I")}),
               A(vrem::kIdentity, {Var("I")}),
               A(vrem::kMultiM, {Var("L"), Var("I"), Var("L")}),
               A(vrem::kMultiM, {Var("I"), Var("L"), Var("L")})}));
  out.push_back(
      MakeTgd("lup-upper-fixpoint",
              {A(vrem::kType, {Var("U"), Cst(vrem::kTypeUpper)})},
              {A(vrem::kLup, {Var("U"), Var("I"), Var("U"), Var("I")}),
               A(vrem::kIdentity, {Var("I")}),
               A(vrem::kMultiM, {Var("I"), Var("U"), Var("U")})}));
  return out;
}

std::vector<Constraint> MmcStatAgg() {
  std::vector<Constraint> out;

  // --- UnnecessaryAggregates: agg(shuffle(M)) = agg(M). -----------------
  struct Collapse {
    const char* inner;
    const char* agg;
  };
  for (const Collapse& c : std::initializer_list<Collapse>{
           {vrem::kTr, vrem::kSum},      {vrem::kRev, vrem::kSum},
           {vrem::kRowSums, vrem::kSum}, {vrem::kColSums, vrem::kSum},
           {vrem::kRowMin, vrem::kMin},  {vrem::kColMin, vrem::kMin},
           {vrem::kRowMax, vrem::kMax},  {vrem::kColMax, vrem::kMax},
           {vrem::kTr, vrem::kMean},     {vrem::kRev, vrem::kMean}}) {
    out.push_back(
        MakeTgd(std::string("collapse-") + c.agg + "-" + c.inner,
                {A(c.inner, {Var("M"), Var("R1")}),
                 A(c.agg, {Var("R1"), Var("s")})},
                {A(c.agg, {Var("M"), Var("s")})}));
  }

  // --- pushdownUnaryAggTransposeOp: rowAgg(t(M)) = t(colAgg(M)) etc. ----
  struct TransposeSwap {
    const char* row_op;
    const char* col_op;
  };
  for (const TransposeSwap& s : std::initializer_list<TransposeSwap>{
           {vrem::kRowSums, vrem::kColSums},
           {vrem::kRowMean, vrem::kColMean},
           {vrem::kRowVar, vrem::kColVar},
           {vrem::kRowMax, vrem::kColMax},
           {vrem::kRowMin, vrem::kColMin}}) {
    // rowOp(t(M)) -> t(colOp(M)).
    out.push_back(
        MakeTgd(std::string("tr-push-") + s.row_op,
                {A(vrem::kTr, {Var("M"), Var("R1")}),
                 A(s.row_op, {Var("R1"), Var("R2")})},
                {A(s.col_op, {Var("M"), Var("R3")}),
                 A(vrem::kTr, {Var("R3"), Var("R2")})}));
    // colOp(t(M)) -> t(rowOp(M)).
    out.push_back(
        MakeTgd(std::string("tr-push-") + s.col_op,
                {A(vrem::kTr, {Var("M"), Var("R1")}),
                 A(s.col_op, {Var("R1"), Var("R2")})},
                {A(s.row_op, {Var("M"), Var("R3")}),
                 A(vrem::kTr, {Var("R3"), Var("R2")})}));
  }

  // --- simplifyTraceMatrixMult: trace(MN) = sum(M ⊙ t(N)). ---------------
  out.push_back(
      MakeTgd("trace-mul-sum",
              {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
               A(vrem::kTrace, {Var("R1"), Var("s")})},
              {A(vrem::kTr, {Var("N"), Var("R3")}),
               A(vrem::kMultiE, {Var("M"), Var("R3"), Var("R4")}),
               A(vrem::kSum, {Var("R4"), Var("s")})}));

  // --- simplifySumMatrixMult (rule (i) of §6.2.6 and friends). -----------
  // sum(M N) = sum(t(colSums(M)) ⊙ rowSums(N)).
  out.push_back(
      MakeTgd("sum-mul",
              {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R")}),
               A(vrem::kSum, {Var("R"), Var("s")})},
              {A(vrem::kColSums, {Var("M"), Var("R1")}),
               A(vrem::kTr, {Var("R1"), Var("R2")}),
               A(vrem::kRowSums, {Var("N"), Var("R3")}),
               A(vrem::kMultiE, {Var("R2"), Var("R3"), Var("R4")}),
               A(vrem::kSum, {Var("R4"), Var("s")})}));
  // colSums(M N) = colSums(M) N.
  Both("colSums-mul",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kColSums, {Var("R1"), Var("R2")})},
       {A(vrem::kColSums, {Var("M"), Var("R3")}),
        A(vrem::kMultiM, {Var("R3"), Var("N"), Var("R2")})},
       out);
  // rowSums(M N) = M rowSums(N).
  Both("rowSums-mul",
       {A(vrem::kMultiM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kRowSums, {Var("R1"), Var("R2")})},
       {A(vrem::kRowSums, {Var("N"), Var("R3")}),
        A(vrem::kMultiM, {Var("M"), Var("R3"), Var("R2")})},
       out);

  // --- Row/column vector simplifications (need `size` facts). ------------
  // Row vectors (1 x j): column-wise aggregation is the identity.
  for (const char* op : {vrem::kColSums, vrem::kColMean, vrem::kColMin,
                         vrem::kColMax}) {
    out.push_back(MakeTgd(std::string("rowvec-") + op,
                          {A(vrem::kSize, {Var("M"), Cst("1"), Var("j")})},
                          {A(op, {Var("M"), Var("M")})}));
  }
  // Column vectors (i x 1): row-wise aggregation is the identity.
  for (const char* op : {vrem::kRowSums, vrem::kRowMean, vrem::kRowMin,
                         vrem::kRowMax}) {
    out.push_back(MakeTgd(std::string("colvec-") + op,
                          {A(vrem::kSize, {Var("M"), Var("i"), Cst("1")})},
                          {A(op, {Var("M"), Var("M")})}));
  }
  // Column vectors: colSums collapses to the full aggregate (and duals).
  struct VecCollapse {
    const char* partial;
    const char* full;
    bool col_vector;  // true: i x 1, false: 1 x j.
  };
  for (const VecCollapse& v : std::initializer_list<VecCollapse>{
           {vrem::kColSums, vrem::kSum, true},
           {vrem::kColMean, vrem::kMean, true},
           {vrem::kColMin, vrem::kMin, true},
           {vrem::kColMax, vrem::kMax, true},
           {vrem::kColVar, vrem::kVar, true},
           {vrem::kRowSums, vrem::kSum, false},
           {vrem::kRowMean, vrem::kMean, false},
           {vrem::kRowMin, vrem::kMin, false},
           {vrem::kRowMax, vrem::kMax, false},
           {vrem::kRowVar, vrem::kVar, false}}) {
    std::vector<Atom> premise;
    if (v.col_vector) {
      premise = {A(vrem::kSize, {Var("M"), Var("i"), Cst("1")}),
                 A(v.partial, {Var("M"), Var("R1")})};
    } else {
      premise = {A(vrem::kSize, {Var("M"), Cst("1"), Var("j")}),
                 A(v.partial, {Var("M"), Var("R1")})};
    }
    out.push_back(MakeTgd(std::string("veccollapse-") + v.partial + "-" +
                              (v.col_vector ? "c" : "r"),
                          std::move(premise),
                          {A(v.full, {Var("M"), Var("R1")})}));
  }

  // --- pushdownSumOnAdd: sum(M + N) = sum(M) + sum(N). --------------------
  Both("sum-add",
       {A(vrem::kAddM, {Var("M"), Var("N"), Var("R1")}),
        A(vrem::kSum, {Var("R1"), Var("s1")})},
       {A(vrem::kSum, {Var("M"), Var("s2")}),
        A(vrem::kSum, {Var("N"), Var("s3")}),
        A(vrem::kAddS, {Var("s2"), Var("s3"), Var("s1")})},
       out);
  // sum(c ⊙ M) = c * sum(M) (scalar pulled out of a full aggregate).
  Both("sum-scalar",
       {A(vrem::kMultiMS, {Var("c"), Var("M"), Var("R1")}),
        A(vrem::kSum, {Var("R1"), Var("s1")})},
       {A(vrem::kSum, {Var("M"), Var("s2")}),
        A(vrem::kMultiS, {Var("c"), Var("s2"), Var("s1")})},
       out);

  // --- ColSumsMVMult. -------------------------------------------------------
  // colSums(M ⊙ N) = t(M) N when N is a column vector.
  out.push_back(
      MakeTgd("colSums-hadamard-vector",
              {A(vrem::kSize, {Var("N"), Var("i"), Cst("1")}),
               A(vrem::kMultiE, {Var("M"), Var("N"), Var("R1")}),
               A(vrem::kColSums, {Var("R1"), Var("R2")})},
              {A(vrem::kTr, {Var("M"), Var("R3")}),
               A(vrem::kMultiM, {Var("R3"), Var("N"), Var("R2")})}));
  // rowSums(M ⊙ N) = M t(N) when N is a row vector.
  out.push_back(
      MakeTgd("rowSums-hadamard-vector",
              {A(vrem::kSize, {Var("N"), Cst("1"), Var("j")}),
               A(vrem::kMultiE, {Var("M"), Var("N"), Var("R1")}),
               A(vrem::kRowSums, {Var("R1"), Var("R2")})},
              {A(vrem::kTr, {Var("N"), Var("R3")}),
               A(vrem::kMultiM, {Var("M"), Var("R3"), Var("R2")})}));

  return out;
}

std::vector<Constraint> MorpheusRules() {
  std::vector<Constraint> out;
  // M = [T | K U] (PK-FK join output). Morpheus's factorized rewrite rules
  // (Chen et al. [27]), §9.2's footnote 4.
  // rowSums(M) = rowSums(T) + K rowSums(U).
  Both("morpheus-rowSums",
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kRowSums, {Var("M"), Var("R")})},
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kRowSums, {Var("T"), Var("R1")}),
        A(vrem::kRowSums, {Var("U"), Var("R2")}),
        A(vrem::kMultiM, {Var("K"), Var("R2"), Var("R3")}),
        A(vrem::kAddM, {Var("R1"), Var("R3"), Var("R")})},
       out);
  // colSums(M) = [colSums(T) | colSums(K) U].
  Both("morpheus-colSums",
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kColSums, {Var("M"), Var("R")})},
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kColSums, {Var("T"), Var("R1")}),
        A(vrem::kColSums, {Var("K"), Var("R2")}),
        A(vrem::kMultiM, {Var("R2"), Var("U"), Var("R3")}),
        A(vrem::kCbind, {Var("R1"), Var("R3"), Var("R")})},
       out);
  // C M = [C T | (C K) U].
  Both("morpheus-leftmul",
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kMultiM, {Var("C"), Var("M"), Var("R")})},
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kMultiM, {Var("C"), Var("T"), Var("R1")}),
        A(vrem::kMultiM, {Var("C"), Var("K"), Var("R2")}),
        A(vrem::kMultiM, {Var("R2"), Var("U"), Var("R3")}),
        A(vrem::kCbind, {Var("R1"), Var("R3"), Var("R")})},
       out);
  // sum(M) = sum(T) + sum(colSums(K) U).
  Both("morpheus-sum",
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kSum, {Var("M"), Var("s")})},
       {A(vrem::kMorpheusJoin, {Var("T"), Var("K"), Var("U"), Var("M")}),
        A(vrem::kSum, {Var("T"), Var("s1")}),
        A(vrem::kColSums, {Var("K"), Var("R1")}),
        A(vrem::kMultiM, {Var("R1"), Var("U"), Var("R2")}),
        A(vrem::kSum, {Var("R2"), Var("s2")}),
        A(vrem::kAddS, {Var("s1"), Var("s2"), Var("s")})},
       out);
  return out;
}

std::vector<Constraint> BuildMmc() {
  std::vector<Constraint> out;
  for (std::vector<Constraint> family :
       {MmcCoreKeys(), MmcFunctionalKeys(), MmcLaProperties(),
        MmcDecompositions(), MmcStatAgg(), MorpheusRules()}) {
    for (Constraint& c : family) out.push_back(std::move(c));
  }
  return out;
}

const std::vector<Constraint>& SharedMmc() {
  static const std::vector<Constraint>* const mmc =
      new std::vector<Constraint>(BuildMmc());
  return *mmc;
}

Result<std::vector<Constraint>> EncodeViewConstraints(
    const std::string& name, const Expr& definition,
    const MetaCatalog& catalog) {
  HADAD_ASSIGN_OR_RETURN(EncodedExpr enc, EncodeExpression(definition, catalog));
  // V_IO: body pattern → the root class carries the view's name.
  std::vector<Atom> body = enc.query.body;
  std::vector<Atom> head = {
      MakeAtom(vrem::kName, {Var(enc.root_var), Cst(name)})};
  std::vector<Constraint> out;
  out.push_back(MakeTgd("view-io:" + name, body, head));
  // V_OI: a class named like the view exhibits the definition's pattern
  // (inner classes existential).
  out.push_back(MakeTgd("view-oi:" + name, std::move(head), std::move(body)));
  return out;
}

}  // namespace hadad::la
