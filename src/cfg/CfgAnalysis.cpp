//===- CfgAnalysis.cpp - CFG traversals, dominators, loops -----------------===//

#include "cfg/CfgAnalysis.h"

#include "cfg/FlatCfg.h"
#include "support/Check.h"

#include <algorithm>

using namespace coderep;
using namespace coderep::cfg;

std::vector<bool> cfg::reachableBlocks(const Function &F) {
  std::vector<bool> Seen(F.size(), false);
  std::vector<int> Stack = {0};
  Seen[0] = true;
  while (!Stack.empty()) {
    int B = Stack.back();
    Stack.pop_back();
    F.forEachSuccessor(B, [&](int S) {
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back(S);
      }
    });
  }
  return Seen;
}

int cfg::removeUnreachableBlocks(Function &F) {
  std::vector<bool> Seen = reachableBlocks(F);
  int Removed = 0;
  for (int I = F.size() - 1; I >= 0; --I)
    if (!Seen[I]) {
      F.eraseBlock(I);
      ++Removed;
    }
  return Removed;
}

/// Reverse postorder over \p Flat (entry first), visiting successors in
/// edge order exactly as the Function-based overload always did.
static std::vector<int> reversePostorderFlat(const FlatCfg &Flat) {
  std::vector<int> Post;
  std::vector<int> State(Flat.size(), 0); // 0 unseen, 1 on stack, 2 done
  // Iterative DFS with an explicit stack of (node, next-successor) pairs.
  std::vector<std::pair<int, int>> Stack;
  Stack.push_back({0, 0});
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[Node, NextIdx] = Stack.back();
    FlatCfg::Range Succs = Flat.succs(Node);
    if (NextIdx < Succs.size()) {
      int S = Succs.begin()[NextIdx++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0});
      }
    } else {
      State[Node] = 2;
      Post.push_back(Node);
      Stack.pop_back();
    }
  }
  std::reverse(Post.begin(), Post.end());
  return Post;
}

std::vector<int> cfg::reversePostorder(const Function &F) {
  return reversePostorderFlat(FlatCfg(F));
}

/// Shared engine for Dominators: Cooper/Harvey/Kennedy over the RPO of
/// \p Flat.
static std::vector<int> computeIdom(const FlatCfg &Flat,
                                    const std::vector<int> &Rpo) {
  std::vector<int> Idom(Flat.size(), -1);
  std::vector<int> RpoNumber(Flat.size(), -1);
  for (size_t I = 0; I < Rpo.size(); ++I)
    RpoNumber[Rpo[I]] = static_cast<int>(I);

  auto intersect = [&](int A, int B) {
    while (A != B) {
      while (RpoNumber[A] > RpoNumber[B])
        A = Idom[A];
      while (RpoNumber[B] > RpoNumber[A])
        B = Idom[B];
    }
    return A;
  };

  Idom[0] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B : Rpo) {
      if (B == 0)
        continue;
      int NewIdom = -1;
      for (int P : Flat.preds(B)) {
        if (RpoNumber[P] < 0 || Idom[P] < 0)
          continue; // unreachable or not yet processed
        NewIdom = NewIdom < 0 ? P : intersect(P, NewIdom);
      }
      if (NewIdom >= 0 && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
  Idom[0] = -1; // the entry has no immediate dominator
  return Idom;
}

Dominators::Dominators(const Function &F) : Dominators(F, FlatCfg(F)) {}

Dominators::Dominators(const Function &, const FlatCfg &Flat) {
  Idom = computeIdom(Flat, reversePostorderFlat(Flat));

  // Number the dominator tree once so every query is an interval test:
  // children as linked lists, then an iterative DFS from the entry.
  const int N = Flat.size();
  std::vector<int> FirstChild(N, -1), NextSibling(N, -1);
  for (int B = 0; B < N; ++B)
    if (Idom[B] >= 0) {
      NextSibling[B] = FirstChild[Idom[B]];
      FirstChild[Idom[B]] = B;
    }
  Pre.assign(N, -1);
  Post.assign(N, -1);
  int Clock = 0;
  std::vector<std::pair<int, int>> Stack = {{0, FirstChild[0]}};
  Pre[0] = Clock++;
  while (!Stack.empty()) {
    auto &[Node, Next] = Stack.back();
    if (int C = Next; C >= 0) {
      Next = NextSibling[C];
      Pre[C] = Clock++;
      Stack.push_back({C, FirstChild[C]});
    } else {
      Post[Node] = Clock++;
      Stack.pop_back();
    }
  }
}

bool NaturalLoop::contains(int Index) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), Index);
}

LoopInfo::LoopInfo(const Function &F) : LoopInfo(F, FlatCfg(F)) {}

LoopInfo::LoopInfo(const Function &F, const FlatCfg &Flat)
    : LoopInfo(F, Flat, Dominators(F, Flat)) {}

LoopInfo::LoopInfo(const Function &F, const FlatCfg &Flat,
                   const Dominators &Dom) {
  // Reachability falls out of the dominator tree: the entry dominates
  // exactly the reachable blocks.
  auto reachable = [&](int B) { return Dom.dominates(0, B); };

  // Collect back edges grouped by header.
  std::vector<std::vector<int>> BackEdgeSources(F.size());
  for (int B = 0; B < F.size(); ++B) {
    if (!reachable(B))
      continue;
    for (int S : Flat.succs(B))
      if (Dom.dominates(S, B))
        BackEdgeSources[S].push_back(B);
  }

  std::vector<bool> InBody(F.size(), false);
  for (int H = 0; H < F.size(); ++H) {
    if (BackEdgeSources[H].empty())
      continue;
    // Standard natural-loop body computation: walk predecessors backwards
    // from every back-edge source until the header is reached.
    std::vector<int> Body = {H};
    InBody[H] = true;
    std::vector<int> Work = BackEdgeSources[H];
    while (!Work.empty()) {
      int B = Work.back();
      Work.pop_back();
      if (InBody[B])
        continue;
      InBody[B] = true;
      Body.push_back(B);
      for (int P : Flat.preds(B))
        if (reachable(P))
          Work.push_back(P);
    }
    std::sort(Body.begin(), Body.end());
    for (int B : Body)
      InBody[B] = false; // reset for the next header
    NaturalLoop L;
    L.Header = H;
    L.Blocks = std::move(Body);
    Loops.push_back(std::move(L));
  }
}

const NaturalLoop *LoopInfo::loopWithHeader(int Index) const {
  for (const NaturalLoop &L : Loops)
    if (L.Header == Index)
      return &L;
  return nullptr;
}

const NaturalLoop *LoopInfo::innermostLoopContaining(int Index) const {
  const NaturalLoop *Best = nullptr;
  for (const NaturalLoop &L : Loops)
    if (L.contains(Index))
      if (!Best || L.Blocks.size() < Best->Blocks.size())
        Best = &L;
  return Best;
}

bool cfg::isReducible(const Function &F) {
  FlatCfg Flat(F);
  return isReducible(F, Flat, Dominators(F, Flat));
}

bool cfg::isReducible(const Function &F, const FlatCfg &Flat,
                      const Dominators &Dom) {
  // Classic characterization (equivalent to collapsing with T1/T2): a flow
  // graph is reducible iff deleting every back edge - an edge u->h whose
  // target dominates its source - leaves an acyclic graph. The T1/T2
  // formulation collapses the same graphs; this one runs on flat arrays in
  // near-linear time, which matters because JUMPS step 6 calls it after
  // every attempted replication.
  //
  // DFS cycle check over the forward (non-back) edges of the reachable
  // subgraph. Whether a cycle exists does not depend on the root order,
  // and the unreachable blocks are never entered.
  enum : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Color(F.size(), White);
  std::vector<std::pair<int, int>> Stack;
  for (int Root = 0; Root < F.size(); ++Root) {
    if (Color[Root] != White || !Dom.dominates(0, Root))
      continue;
    Stack.push_back({Root, 0});
    Color[Root] = Grey;
    while (!Stack.empty()) {
      auto &[Node, NextIdx] = Stack.back();
      FlatCfg::Range Succs = Flat.succs(Node);
      bool Descended = false;
      while (NextIdx < Succs.size()) {
        int S = Succs.begin()[NextIdx++];
        if (S == Node || Dom.dominates(S, Node))
          continue; // self-loop or natural back edge: deleted
        if (Color[S] == Grey)
          return false; // cycle without a dominating header
        if (Color[S] == White) {
          Color[S] = Grey;
          Stack.push_back({S, 0});
          Descended = true;
          break;
        }
      }
      if (!Descended && !Stack.empty() && Stack.back().first == Node &&
          NextIdx >= Succs.size()) {
        Color[Node] = Black;
        Stack.pop_back();
      }
    }
  }
  return true;
}
