package com.example;

public class AudioAttributes {
}
