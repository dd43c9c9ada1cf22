/* Symbolic-size gemm: C := 1.2 * C + 1.5 * A * B with runtime sizes
 * (row-major, flattened). The serving workload's shape-specialized
 * program; the same source bench/fig6_polybench.cpp times. */
void kernel_gemm_sym(int ni, int nj, int nk, double *A, double *B,
                     double *C) {
  for (int i = 0; i < ni; i++) {
    for (int j = 0; j < nj; j++)
      C[i * nj + j] *= 1.2;
    for (int k = 0; k < nk; k++)
      for (int j = 0; j < nj; j++)
        C[i * nj + j] += 1.5 * A[i * nk + k] * B[k * nj + j];
  }
}
