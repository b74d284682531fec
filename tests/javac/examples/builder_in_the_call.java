import android.media.AudioAttributes;

public class Example {
    void ring(android.app.Notification.Builder builder, android.net.Uri uri) {
        if (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.LOLLIPOP) {
            builder.setSound(uri, new AudioAttributes.Builder().setUsage(5).build());
        } else {
            builder.setSound(uri);
        }
    }
}
