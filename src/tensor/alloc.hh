/**
 * @file
 * Tensor storage allocation.
 *
 * Every tensor buffer is one fresh 64-byte-aligned heap allocation,
 * made and released by Tensor's storage (tensor/tensor.cc). There is
 * no allocator policy to choose: Fig. 3b's live/peak accounting is in
 * logical tensor bytes, so where the bytes live never changed a
 * reported figure, and a recycling pool measured no faster (see
 * DESIGN.md §7c).
 */

#ifndef NSBENCH_TENSOR_ALLOC_HH
#define NSBENCH_TENSOR_ALLOC_HH

namespace nsbench::tensor
{

/** Name of the tensor allocator, for run provenance: "heap". */
inline const char *
activeAllocatorName()
{
    return "heap";
}

} // namespace nsbench::tensor

#endif // NSBENCH_TENSOR_ALLOC_HH
