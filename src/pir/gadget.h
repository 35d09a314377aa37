/**
 * @file
 * PIR's gadgets — the external-product gadget the fold and CMux tree
 * decompose with, and the finer full-width one of the Galois keyswitch
 * — are instances of the repo's one signed gadget decomposition,
 * trinity::Gadget (common/gadget.h), parameterized on (q, logB,
 * levels).
 */

#ifndef TRINITY_PIR_GADGET_H
#define TRINITY_PIR_GADGET_H

#include "common/gadget.h"

namespace trinity {
namespace pir {

using Gadget = trinity::Gadget;

} // namespace pir
} // namespace trinity

#endif // TRINITY_PIR_GADGET_H
