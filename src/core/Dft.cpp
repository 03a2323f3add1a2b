//===- core/Dft.cpp - Data-flow trees -------------------------------------===//

#include "core/Dft.h"

using namespace dnnfusion;

int DftTree::interiorNodeCount() const {
  int Count = 0;
  for (const DftNode &N : Nodes)
    if (N.K != DftNode::Kind::Leaf)
      ++Count;
  return Count;
}
