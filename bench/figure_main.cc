/**
 * @file
 * main() of every figure-table binary: runs the row named by
 * GRIT_FIGURE, which bench/CMakeLists.txt defines per target.
 */

#include "figures.h"

int
main(int argc, char **argv)
{
    return grit::bench::runFigure(GRIT_FIGURE, argc, argv);
}
